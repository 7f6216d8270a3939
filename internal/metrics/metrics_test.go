package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("value = %d, want 1", got)
	}
	if got := g.Max(); got != 3 {
		t.Errorf("max = %d, want 3", got)
	}
}

func TestGaugeConcurrentMax(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Inc()
			g.Dec()
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("value = %d, want 0", got)
	}
	if max := g.Max(); max < 1 || max > 16 {
		t.Errorf("max = %d, want in [1,16]", max)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(1500)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 1500 || s.Min != 1500 || s.Max != 1500 {
		t.Errorf("snapshot = %+v", s)
	}
	// With one observation, every quantile must clamp to the value.
	if s.P50 != 1500 || s.P95 != 1500 || s.P99 != 1500 {
		t.Errorf("quantiles = %d/%d/%d, want 1500", s.P50, s.P95, s.P99)
	}
}

func TestHistogramQuantilesBounded(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	// Power-of-two buckets: the estimate may be off by up to one bucket
	// width, but must stay ordered and inside the observed range.
	if s.P50 < s.Min || s.P99 > s.Max || s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles out of order: min=%d p50=%d p95=%d p99=%d max=%d",
			s.Min, s.P50, s.P95, s.P99, s.Max)
	}
	// p50 of uniform 1..1000 is ~500; bucket [512,1024) or [256,512)
	// neighbors are acceptable.
	if s.P50 < 250 || s.P50 > 1000 {
		t.Errorf("p50 = %d, want near 500", s.P50)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestServerMetricsSnapshotReconciles(t *testing.T) {
	var m ServerMetrics
	m.StartClock(time.Now().Add(-2 * time.Second))
	for i := 0; i < 5; i++ {
		m.SessionsStarted.Inc()
	}
	m.SessionsCompleted.Add(3)
	m.SessionsFailed.Add(1)
	m.ActiveSessions.Inc()
	m.SessionsRejected.Add(7)
	m.BytesIn.Add(100)
	m.BytesOut.Add(200)
	m.SessionNanos.ObserveDuration(3 * time.Millisecond)

	s := m.Snapshot(time.Now())
	if s.Sessions.Started != s.Sessions.Completed+s.Sessions.Failed+s.Sessions.Active {
		t.Errorf("counters do not reconcile: %+v", s.Sessions)
	}
	if s.Sessions.Rejected != 7 {
		t.Errorf("rejected = %d", s.Sessions.Rejected)
	}
	if s.UptimeSeconds < 1.5 {
		t.Errorf("uptime = %f, want >= 1.5s", s.UptimeSeconds)
	}
	if s.PhaseNanos["session"].Count != 1 {
		t.Errorf("session histogram count = %d", s.PhaseNanos["session"].Count)
	}
}

func TestSummaryMentionsCounts(t *testing.T) {
	var m ServerMetrics
	m.SessionsStarted.Add(4)
	got := m.Summary()
	if got == "" {
		t.Fatal("empty summary")
	}
}

// Regression: a histogram with zero observations must snapshot to all-zero
// derived fields and survive a JSON round trip — NaN or Inf anywhere would
// make encoding/json error out and take the whole /stats document with it.
func TestHistogramZeroCountJSON(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 ||
		s.Mean != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Fatalf("zero-count snapshot has non-zero fields: %+v", s)
	}
	if s.Mean != s.Mean || s.Mean > 1e300 || s.Mean < -1e300 {
		t.Fatalf("zero-count mean is not a plain finite zero: %v", s.Mean)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("zero-count snapshot does not marshal: %v", err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("zero-count snapshot does not round trip: %v", err)
	}
	if back != s {
		t.Fatalf("round trip changed snapshot: %+v != %+v", back, s)
	}
}

func TestFiniteOrZero(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := finiteOrZero(bad); got != 0 {
			t.Errorf("finiteOrZero(%v) = %v, want 0", bad, got)
		}
	}
	if got := finiteOrZero(3.5); got != 3.5 {
		t.Errorf("finiteOrZero(3.5) = %v", got)
	}
}

func TestClusterMetricsSnapshot(t *testing.T) {
	var cm ClusterMetrics
	cm.Queries.Inc()
	cm.Retries.Add(2)
	cm.Failovers.Inc()
	b := cm.Backend("127.0.0.1:7001")
	b.Sessions.Inc()
	b.FanoutNanos.Observe(1_000_000)
	if cm.Backend("127.0.0.1:7001") != b {
		t.Fatal("Backend not idempotent")
	}

	s := cm.Snapshot()
	if s.Queries != 1 || s.Retries != 2 || s.Failovers != 1 {
		t.Fatalf("counter snapshot wrong: %+v", s)
	}
	bs, ok := s.Backends["127.0.0.1:7001"]
	if !ok || bs.Sessions != 1 || bs.FanoutNanos.Count != 1 {
		t.Fatalf("backend snapshot wrong: %+v", s.Backends)
	}
	// The whole cluster document must JSON-encode even with empty
	// histograms elsewhere.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("cluster snapshot does not marshal: %v", err)
	}
}
