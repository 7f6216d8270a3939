// Package metrics provides the lightweight observability substrate for the
// daemons: lock-free counters and gauges, streaming histograms with
// exponential buckets, and one registry (registry.go) through which every
// family of them reaches the /metrics and /stats endpoints.
//
// The package deliberately has no external dependencies — the ROADMAP's
// production target is a pure-stdlib system — and every primitive is safe
// for concurrent use by many session goroutines. Histograms trade exactness
// for O(1) memory: observations land in power-of-two buckets, and quantiles
// are estimated by linear interpolation inside the winning bucket, which is
// plenty for a latency summary (the error is bounded by one bucket width).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways. It also
// tracks the high-water mark, which the admission-control tests use to
// assert the concurrency cap was honored.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Inc increases the gauge by one and updates the high-water mark.
func (g *Gauge) Inc() {
	now := g.v.Add(1)
	for {
		m := g.max.Load()
		if now <= m || g.max.CompareAndSwap(m, now) {
			return
		}
	}
}

// Dec decreases the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the gauge's level (e.g. a sampled stock depth) and updates
// the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the highest level the gauge ever reached.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the number of power-of-two buckets: bucket i holds
// observations v with bitlen(v) == i, i.e. v in [2^(i-1), 2^i). 64 buckets
// cover the full non-negative int64 range.
const histBuckets = 64

// Histogram is a streaming histogram over non-negative int64 observations
// (typically nanoseconds or bytes). It keeps count, sum, min, max, and
// power-of-two buckets; quantiles are interpolated. The zero value is ready
// to use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// Observe records one observation. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
	h.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Buckets returns the raw power-of-two buckets with the total count and sum,
// for renderers that need the distribution rather than the interpolated
// quantile summary. Bucket 0 holds exactly the zero observations; bucket i>0
// holds v in [2^(i-1), 2^i).
func (h *Histogram) Buckets() (buckets [histBuckets]int64, count, sum int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets, h.count, h.sum
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot returns the current summary. With zero observations every
// derived field (mean, quantiles, min, max) is exactly 0 — never NaN or
// ±Inf, which encoding/json refuses to marshal and which would therefore
// break the whole /stats document for any consumer the moment one
// histogram is still empty.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = finiteOrZero(float64(h.sum) / float64(h.count))
		s.P50 = h.quantileLocked(0.50)
		s.P95 = h.quantileLocked(0.95)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}

// finiteOrZero clamps non-finite float results to 0 so snapshots always
// JSON-encode.
func finiteOrZero(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// quantileLocked estimates the q-quantile by walking the buckets and
// interpolating linearly within the bucket where the target rank lands.
// Callers must hold h.mu.
func (h *Histogram) quantileLocked(q float64) int64 {
	rank := q * float64(h.count)
	var seen float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			// Bucket i spans [lo, hi): bucket 0 is exactly {0}.
			var lo, hi float64
			if i == 0 {
				return clampBucket(0, h.min, h.max)
			}
			lo = math.Exp2(float64(i - 1))
			hi = math.Exp2(float64(i))
			frac := (rank - seen) / float64(n)
			return clampBucket(int64(lo+(hi-lo)*frac), h.min, h.max)
		}
		seen += float64(n)
	}
	return h.max
}

// clampBucket keeps interpolated quantiles inside the observed range so a
// single observation reports p50 == p99 == the value itself.
func clampBucket(v, min, max int64) int64 {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

// ServerMetrics aggregates everything the server runtime records. All fields
// are safe for concurrent use; the server feeds them and the stats endpoint,
// periodic log summary, and tests read them.
type ServerMetrics struct {
	// Session lifecycle counters. The reconciliation invariant — checked by
	// tests and worth alerting on in production — is
	// Started == Completed + Failed + Active once the server is idle.
	// Rejected sessions never start. Completed and Failed move before the
	// session's last reply frame is written, so a peer holding its reply
	// already sees its session counted; a final write that then fails is
	// logged, and is not a second outcome. Active counts sessions, not
	// connections: a kept connection idling between sessions is not one.
	SessionsStarted   Counter
	SessionsCompleted Counter
	SessionsFailed    Counter
	SessionsRejected  Counter
	ActiveSessions    Gauge

	// Transport volume, summed over finished sessions from the wire meter;
	// a session's bytes are added once its last write has returned.
	BytesIn  Counter
	BytesOut Counter

	// Runtime health.
	AcceptErrors  Counter // transient accept failures survived via backoff
	SessionPanics Counter // sessions that panicked (isolated, counted failed)

	// Per-phase server-side compute durations (nanoseconds) and the
	// whole-session wall time.
	HelloNanos    Histogram
	AbsorbNanos   Histogram
	FinalizeNanos Histogram
	SessionNanos  Histogram

	start sync.Once
	since atomic.Int64 // unix nanos of first StartClock call
}

// StartClock records the server start time for the uptime field; the first
// call wins.
func (m *ServerMetrics) StartClock(now time.Time) {
	m.start.Do(func() { m.since.Store(now.UnixNano()) })
}

// uptime is the seconds from StartClock to now; 0 before the clock started.
func (m *ServerMetrics) uptime(now time.Time) float64 {
	since := m.since.Load()
	if since == 0 {
		return 0
	}
	return now.Sub(time.Unix(0, since)).Seconds()
}

// Describe declares the server runtime's series.
func (m *ServerMetrics) Describe(d *Desc) {
	d.Gauge("privstats_uptime_seconds", "Seconds since the server runtime started.").Sample(m.uptime(d.Now))
	d.Counter("privstats_sessions_total", "Sessions by terminal state; started = completed + failed + active.", "state").
		Sample(m.SessionsStarted.Value(), "started").
		Sample(m.SessionsCompleted.Value(), "completed").
		Sample(m.SessionsFailed.Value(), "failed").
		Sample(m.SessionsRejected.Value(), "rejected")
	d.Gauge("privstats_active_sessions", "Sessions currently in flight.").Sample(m.ActiveSessions.Value())
	d.Gauge("privstats_active_sessions_peak", "High-water mark of concurrent sessions.").Sample(m.ActiveSessions.Max())
	d.Counter("privstats_transport_bytes_total", "Wire bytes over finished sessions, by direction.", "direction").
		Sample(m.BytesIn.Value(), "in").
		Sample(m.BytesOut.Value(), "out")
	d.Counter("privstats_accept_errors_total", "Transient accept failures survived via backoff.").Sample(m.AcceptErrors.Value())
	d.Counter("privstats_session_panics_total", "Sessions that panicked (isolated, counted failed).").Sample(m.SessionPanics.Value())
	d.Histogram("privstats_phase_seconds", "Server-side compute time per protocol phase.", "phase").
		Sample(&m.HelloNanos, "hello").
		Sample(&m.AbsorbNanos, "absorb").
		Sample(&m.FinalizeNanos, "finalize").
		Sample(&m.SessionNanos, "session")
}

// Snapshot is the JSON document sumserver's /stats serves. The schema is
// documented in DESIGN.md §8.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Sessions      struct {
		Started   int64 `json:"started"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
		Active    int64 `json:"active"`
		MaxActive int64 `json:"max_active"`
	} `json:"sessions"`
	Bytes struct {
		In  int64 `json:"in"`
		Out int64 `json:"out"`
	} `json:"bytes"`
	AcceptErrors  int64                        `json:"accept_errors"`
	SessionPanics int64                        `json:"session_panics"`
	PhaseNanos    map[string]HistogramSnapshot `json:"phase_nanos"`
}

// Snapshot captures the current state of every metric.
func (m *ServerMetrics) Snapshot(now time.Time) Snapshot {
	var s Snapshot
	s.UptimeSeconds = m.uptime(now)
	s.Sessions.Started = m.SessionsStarted.Value()
	s.Sessions.Completed = m.SessionsCompleted.Value()
	s.Sessions.Failed = m.SessionsFailed.Value()
	s.Sessions.Rejected = m.SessionsRejected.Value()
	s.Sessions.Active = m.ActiveSessions.Value()
	s.Sessions.MaxActive = m.ActiveSessions.Max()
	s.Bytes.In = m.BytesIn.Value()
	s.Bytes.Out = m.BytesOut.Value()
	s.AcceptErrors = m.AcceptErrors.Value()
	s.SessionPanics = m.SessionPanics.Value()
	s.PhaseNanos = map[string]HistogramSnapshot{
		"hello":    m.HelloNanos.Snapshot(),
		"absorb":   m.AbsorbNanos.Snapshot(),
		"finalize": m.FinalizeNanos.Snapshot(),
		"session":  m.SessionNanos.Snapshot(),
	}
	return s
}

// Summary returns a one-line human summary for the periodic log.
func (m *ServerMetrics) Summary() string {
	sess := m.SessionNanos.Snapshot()
	return fmt.Sprintf(
		"sessions: %d started, %d completed, %d failed, %d rejected, %d active (peak %d); bytes: %d in, %d out; session p50=%s p99=%s",
		m.SessionsStarted.Value(), m.SessionsCompleted.Value(),
		m.SessionsFailed.Value(), m.SessionsRejected.Value(),
		m.ActiveSessions.Value(), m.ActiveSessions.Max(),
		m.BytesIn.Value(), m.BytesOut.Value(),
		time.Duration(sess.P50), time.Duration(sess.P99),
	)
}
