package metrics

// Stock-daemon metrics: one bundle of depth gauges and flow counters per
// public-key inventory, so an operator can see at a glance whether the
// refillers are keeping every key's stock above its clients' draw rate — the
// SLO is OnlineFallbacks == 0 on the client side, which holds exactly when
// the depths here never touch zero under load. Keys are labelled by a short
// fingerprint prefix; cardinality is bounded by the daemon's -max-keys cap.

// KeyStockMetrics holds one inventory's gauges and counters.
type KeyStockMetrics struct {
	// DepthZeros/DepthOnes track the current stock levels (Set by the
	// refiller after every pass and by the serving path after every batch).
	// Their Max() is the high-water fill.
	DepthZeros Gauge
	DepthOnes  Gauge

	// GeneratedBits counts items produced by the background refillers;
	// ServedBits counts items shipped to clients. fill rate and draw rate
	// are these counters' derivatives.
	GeneratedBits Counter
	ServedBits    Counter

	// ServedBatches counts batch replies (including short and empty ones —
	// the daemon never blocks a client waiting for stock).
	ServedBatches Counter

	// RefillErrors counts background generation passes that failed.
	RefillErrors Counter

	// FillNanos is the per-refill-pass latency distribution.
	FillNanos Histogram
}

// StockMetrics is the stock daemon's family. The zero value is ready to use.
type StockMetrics struct {
	// Sessions counts stock-protocol sessions served; HelloRejects counts
	// sessions refused at the hello (bad key, inventory cap).
	Sessions     Counter
	HelloRejects Counter

	// Snapshots counts crash-safe inventory snapshots written (periodic or
	// drain-triggered SaveAll passes); SnapshotErrors the ones that failed.
	Snapshots      Counter
	SnapshotErrors Counter

	keys children[KeyStockMetrics]
}

// Key returns (creating on first use) the named key's bundle. name is the
// short fingerprint prefix the daemon labels inventories with.
func (m *StockMetrics) Key(name string) *KeyStockMetrics { return m.keys.get(name) }

// Describe declares the stock daemon's series; the per-key ones list keys in
// name order, each key's kinds together.
func (m *StockMetrics) Describe(d *Desc) {
	d.Counter("privstats_stock_sessions_total", "Stock protocol sessions served.").Sample(m.Sessions.Value())
	d.Counter("privstats_stock_hello_rejects_total", "Stock sessions refused at the hello (bad key, inventory cap).").Sample(m.HelloRejects.Value())
	d.Counter("privstats_stock_snapshots_total", "Crash-safe inventory snapshots written.").Sample(m.Snapshots.Value())
	d.Counter("privstats_stock_snapshot_errors_total", "Inventory snapshot passes that failed.").Sample(m.SnapshotErrors.Value())

	depth := d.Gauge("privstats_stock_depth", "Current inventory depth per key and kind.", "key", "kind")
	generated := d.Counter("privstats_stock_generated_total", "Items produced by the background refillers (fill rate).", "key", "kind")
	served := d.Counter("privstats_stock_served_total", "Items shipped to clients (draw rate).", "key", "kind")
	batches := d.Counter("privstats_stock_served_batches_total", "Batch replies per key, including short and empty ones.", "key")
	refillErrs := d.Counter("privstats_stock_refill_errors_total", "Background generation passes that failed.", "key")
	fill := d.Histogram("privstats_stock_fill_seconds", "Refill-pass latency per key.", "key")
	m.keys.each(func(name string, k *KeyStockMetrics) {
		depth.Sample(k.DepthZeros.Value(), name, "zeros")
		depth.Sample(k.DepthOnes.Value(), name, "ones")
		generated.Sample(k.GeneratedBits.Value(), name, "bits")
		served.Sample(k.ServedBits.Value(), name, "bits")
		batches.Sample(k.ServedBatches.Value(), name)
		refillErrs.Sample(k.RefillErrors.Value(), name)
		fill.Sample(&k.FillNanos, name)
	})
}

// KeyStockSnapshot is one key's row in the JSON stock document.
type KeyStockSnapshot struct {
	Key           string  `json:"key"`
	DepthZeros    int64   `json:"depth_zeros"`
	DepthOnes     int64   `json:"depth_ones"`
	GeneratedBits int64   `json:"generated_bits"`
	ServedBits    int64   `json:"served_bits"`
	ServedBatches int64   `json:"served_batches"`
	RefillErrors  int64   `json:"refill_errors"`
	FillP50Milli  float64 `json:"fill_p50_ms"`
	FillP99Milli  float64 `json:"fill_p99_ms"`
}

// StockSnapshot is the JSON document the daemon's /stats serves.
type StockSnapshot struct {
	Sessions       int64              `json:"sessions"`
	HelloRejects   int64              `json:"hello_rejects"`
	Snapshots      int64              `json:"snapshots"`
	SnapshotErrors int64              `json:"snapshot_errors"`
	Keys           []KeyStockSnapshot `json:"keys"`
}

// Snapshot returns every key's counters in name order.
func (m *StockMetrics) Snapshot() StockSnapshot {
	return StockSnapshot{
		Sessions:       m.Sessions.Value(),
		HelloRejects:   m.HelloRejects.Value(),
		Snapshots:      m.Snapshots.Value(),
		SnapshotErrors: m.SnapshotErrors.Value(),
		Keys: rows(&m.keys, func(name string, k *KeyStockMetrics) KeyStockSnapshot {
			h := k.FillNanos.Snapshot()
			return KeyStockSnapshot{
				Key:           name,
				DepthZeros:    k.DepthZeros.Value(),
				DepthOnes:     k.DepthOnes.Value(),
				GeneratedBits: k.GeneratedBits.Value(),
				ServedBits:    k.ServedBits.Value(),
				ServedBatches: k.ServedBatches.Value(),
				RefillErrors:  k.RefillErrors.Value(),
				FillP50Milli:  float64(h.P50) / 1e6,
				FillP99Milli:  float64(h.P99) / 1e6,
			}
		}),
	}
}
