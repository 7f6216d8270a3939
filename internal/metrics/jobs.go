package metrics

// Job-gateway metrics: one bundle of counters per tenant, so quota and
// fair-share policy decisions stay attributable. Tenant names are operator
// configuration (never analyst-supplied), so the label cardinality is
// bounded by the tenant config file.

// TenantJobs holds one tenant's job counters.
type TenantJobs struct {
	// Submitted counts every job the tenant offered; Admitted the ones that
	// passed quota + validation; Rejected the quota/validation refusals.
	// Admitted jobs end as exactly one of Completed or Failed.
	Submitted Counter
	Admitted  Counter
	Rejected  Counter
	Completed Counter
	Failed    Counter
	// Queued is the number of admitted jobs waiting for or holding an
	// execution slot.
	Queued Gauge
	// JobNanos is the admitted-to-finished latency distribution.
	JobNanos Histogram
}

// JobMetrics is the gateway's family. The zero value is ready to use.
type JobMetrics struct {
	// Crash-recovery counters, gateway-wide (startup is before any tenant
	// attribution exists): jobs rebuilt from the store journal, journal
	// bytes replayed, and torn or corrupt journal tails dropped.
	Recovered     Counter
	ReplayedBytes Counter
	TornTail      Counter

	tenants children[TenantJobs]
}

// Tenant returns (creating on first use) the named tenant's counters.
func (m *JobMetrics) Tenant(name string) *TenantJobs { return m.tenants.get(name) }

// Describe declares the gateway's series; the per-tenant ones list tenants
// in name order, each tenant's job states together.
func (m *JobMetrics) Describe(d *Desc) {
	total := d.Counter("privstats_jobs_total", "Jobs per tenant by outcome; submitted = admitted + rejected.", "tenant", "state")
	queued := d.Gauge("privstats_jobs_queued", "Admitted jobs waiting for or holding an execution slot.", "tenant")
	peak := d.Gauge("privstats_jobs_queued_peak", "High-water mark of queued jobs per tenant.", "tenant")
	seconds := d.Histogram("privstats_job_seconds", "Admitted-to-finished job latency per tenant.", "tenant")
	m.tenants.each(func(name string, t *TenantJobs) {
		total.Sample(t.Submitted.Value(), name, "submitted")
		total.Sample(t.Admitted.Value(), name, "admitted")
		total.Sample(t.Rejected.Value(), name, "rejected")
		total.Sample(t.Completed.Value(), name, "completed")
		total.Sample(t.Failed.Value(), name, "failed")
		queued.Sample(t.Queued.Value(), name)
		peak.Sample(t.Queued.Max(), name)
		seconds.Sample(&t.JobNanos, name)
	})
	d.Counter("privstats_jobs_recovered_total", "Jobs rebuilt from the store journal at startup.").Sample(m.Recovered.Value())
	d.Counter("privstats_jobs_replayed_bytes", "Store journal bytes replayed at startup.").Sample(m.ReplayedBytes.Value())
	d.Counter("privstats_jobs_torn_tail_total", "Torn or corrupt journal tails dropped during replay.").Sample(m.TornTail.Value())
}

// TenantSnapshot is one tenant's row in the JSON jobs document.
type TenantSnapshot struct {
	Tenant      string  `json:"tenant"`
	Submitted   int64   `json:"submitted"`
	Admitted    int64   `json:"admitted"`
	Rejected    int64   `json:"rejected"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	Queued      int64   `json:"queued"`
	QueuedPeak  int64   `json:"queued_peak"`
	JobP50Milli float64 `json:"job_p50_ms"`
	JobP99Milli float64 `json:"job_p99_ms"`
}

// JobsSnapshot is the JSON document the gateway's /stats serves.
type JobsSnapshot struct {
	Tenants []TenantSnapshot `json:"tenants"`
}

// Snapshot returns every tenant's counters in name order.
func (m *JobMetrics) Snapshot() JobsSnapshot {
	return JobsSnapshot{Tenants: rows(&m.tenants, func(name string, t *TenantJobs) TenantSnapshot {
		h := t.JobNanos.Snapshot()
		return TenantSnapshot{
			Tenant:      name,
			Submitted:   t.Submitted.Value(),
			Admitted:    t.Admitted.Value(),
			Rejected:    t.Rejected.Value(),
			Completed:   t.Completed.Value(),
			Failed:      t.Failed.Value(),
			Queued:      t.Queued.Value(),
			QueuedPeak:  t.Queued.Max(),
			JobP50Milli: float64(h.P50) / 1e6,
			JobP99Milli: float64(h.P99) / 1e6,
		}
	})}
}
