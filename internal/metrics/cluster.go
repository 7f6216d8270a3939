package metrics

// Cluster-layer metrics: the aggregator fans each client session out to
// sharded backends through the retrying cluster client, and these are the
// counters that make that path operable — how often backends failed, how
// often a retry or a failover to a replica saved the query, and what each
// backend's shard sessions cost end to end.

// BackendMetrics records one backend's view from the aggregator side.
type BackendMetrics struct {
	// Sessions counts shard sessions attempted against this backend
	// (including retries and replayed failovers).
	Sessions Counter
	// Errors counts attempts that failed for any reason: dial failure,
	// busy rejection, timeout, protocol error.
	Errors Counter
	// Busy counts the subset of Errors that were admission-control busy
	// rejections — load shedding, not breakage.
	Busy Counter
	// FanoutNanos is the latency of complete shard sessions against this
	// backend (dial through partial-sum receipt), successful attempts only.
	FanoutNanos Histogram
}

// ClusterMetrics aggregates the fan-out path. The zero value is ready to
// use; all methods are safe for concurrent use.
type ClusterMetrics struct {
	// Queries counts logical fan-out queries (one per aggregator client
	// session, or one per cluster-client call).
	Queries Counter
	// Retries counts extra attempts on the same backend after a failure.
	Retries Counter
	// Failovers counts switches to a different backend of the same shard
	// group after the current one was given up on.
	Failovers Counter
	// ShardFailures counts shards that exhausted every candidate backend —
	// each one failed a client query.
	ShardFailures Counter
	// HedgedDials counts secondary dials launched because the primary dial
	// was still pending after the hedge delay.
	HedgedDials Counter
	// ShardHedges counts hedged shard re-dispatches launched by the
	// aggregator after a straggling backend crossed its hedge threshold.
	ShardHedges Counter
	// ShardHedgeWins counts the subset of ShardHedges where the hedge (not
	// the original) delivered the partial sum.
	ShardHedgeWins Counter
	// CorruptFrames counts frame-level CRC failures observed (locally
	// detected or reported by the peer as a corrupt-frame error code).
	CorruptFrames Counter
	// Reshards counts shard-map advances (completed cut-overs) since start.
	Reshards Counter
	// Epoch is the shard-map epoch the aggregator most recently served
	// under — the live-resharding observability signal (queries in flight
	// during a cut-over finish under the epoch they pinned).
	Epoch Gauge
	// CombineNanos is the aggregator's combine phase: the homomorphic
	// product of the shard partials.
	CombineNanos Histogram

	backends children[BackendMetrics]
}

// Backend returns (allocating on first use) the metrics bucket for addr.
func (m *ClusterMetrics) Backend(addr string) *BackendMetrics { return m.backends.get(addr) }

// Describe declares the fan-out path's series; the per-backend ones are
// grouped by series, each in address order.
func (m *ClusterMetrics) Describe(d *Desc) {
	d.Counter("privstats_cluster_queries_total", "Logical fan-out queries.").Sample(m.Queries.Value())
	d.Counter("privstats_cluster_retries_total", "Extra attempts on the same backend after a failure.").Sample(m.Retries.Value())
	d.Counter("privstats_cluster_failovers_total", "Switches to a replica backend of the same shard.").Sample(m.Failovers.Value())
	d.Counter("privstats_cluster_shard_failures_total", "Shards that exhausted every candidate backend.").Sample(m.ShardFailures.Value())
	d.Counter("privstats_cluster_hedged_dials_total", "Secondary dials launched past the dial hedge delay.").Sample(m.HedgedDials.Value())
	d.Counter("privstats_cluster_shard_hedges_total", "Hedged shard re-dispatches against stragglers.").Sample(m.ShardHedges.Value())
	d.Counter("privstats_cluster_shard_hedge_wins_total", "Shard hedges that delivered the partial sum first.").Sample(m.ShardHedgeWins.Value())
	d.Counter("privstats_cluster_corrupt_frames_total", "Frame CRC failures observed or reported by peers.").Sample(m.CorruptFrames.Value())
	d.Counter("privstats_cluster_reshards_total", "Completed shard-map cut-overs.").Sample(m.Reshards.Value())
	d.Gauge("privstats_cluster_shardmap_epoch", "Shard-map epoch most recently served.").Sample(m.Epoch.Value())
	d.Histogram("privstats_cluster_combine_seconds", "Homomorphic combine time per query (the product of the shard partials).").Sample(&m.CombineNanos)

	sessions := d.Counter("privstats_cluster_backend_sessions_total", "Shard sessions attempted per backend.", "backend")
	errs := d.Counter("privstats_cluster_backend_errors_total", "Failed shard attempts per backend.", "backend")
	busy := d.Counter("privstats_cluster_backend_busy_total", "Busy (admission-control) rejections per backend.", "backend")
	fanout := d.Histogram("privstats_cluster_backend_fanout_seconds", "Complete shard session latency per backend, successes only.", "backend")
	m.backends.each(func(addr string, b *BackendMetrics) {
		sessions.Sample(b.Sessions.Value(), addr)
		errs.Sample(b.Errors.Value(), addr)
		busy.Sample(b.Busy.Value(), addr)
		fanout.Sample(&b.FanoutNanos, addr)
	})
}

// BackendSnapshot is the JSON form of one backend's counters.
type BackendSnapshot struct {
	Sessions    int64             `json:"sessions"`
	Errors      int64             `json:"errors"`
	Busy        int64             `json:"busy"`
	FanoutNanos HistogramSnapshot `json:"fanout_nanos"`
}

// ClusterSnapshot is the JSON form of the cluster metrics.
type ClusterSnapshot struct {
	Queries        int64                      `json:"queries"`
	Retries        int64                      `json:"retries"`
	Failovers      int64                      `json:"failovers"`
	ShardFailures  int64                      `json:"shard_failures"`
	HedgedDials    int64                      `json:"hedged_dials"`
	ShardHedges    int64                      `json:"shard_hedges"`
	ShardHedgeWins int64                      `json:"shard_hedge_wins"`
	CorruptFrames  int64                      `json:"corrupt_frames"`
	Reshards       int64                      `json:"reshards"`
	Epoch          int64                      `json:"epoch"`
	CombineNanos   HistogramSnapshot          `json:"combine_nanos"`
	Backends       map[string]BackendSnapshot `json:"backends"`
}

// Snapshot captures the current state of every cluster metric.
func (m *ClusterMetrics) Snapshot() ClusterSnapshot {
	s := ClusterSnapshot{
		Queries:        m.Queries.Value(),
		Retries:        m.Retries.Value(),
		Failovers:      m.Failovers.Value(),
		ShardFailures:  m.ShardFailures.Value(),
		HedgedDials:    m.HedgedDials.Value(),
		ShardHedges:    m.ShardHedges.Value(),
		ShardHedgeWins: m.ShardHedgeWins.Value(),
		CorruptFrames:  m.CorruptFrames.Value(),
		Reshards:       m.Reshards.Value(),
		Epoch:          m.Epoch.Value(),
		CombineNanos:   m.CombineNanos.Snapshot(),
		Backends:       make(map[string]BackendSnapshot),
	}
	m.backends.each(func(addr string, b *BackendMetrics) {
		s.Backends[addr] = BackendSnapshot{
			Sessions:    b.Sessions.Value(),
			Errors:      b.Errors.Value(),
			Busy:        b.Busy.Value(),
			FanoutNanos: b.FanoutNanos.Snapshot(),
		}
	})
	return s
}

// ProxySnapshot is the /stats document of a cluster daemon (cmd/sumproxy):
// the hosting server runtime's counters plus the fan-out path's.
type ProxySnapshot struct {
	Server  Snapshot        `json:"server"`
	Cluster ClusterSnapshot `json:"cluster"`
}
