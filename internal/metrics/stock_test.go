package metrics

import (
	"testing"
	"time"
)

func TestGaugeSet(t *testing.T) {
	var g Gauge
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
	g.Set(3)
	if g.Value() != 3 || g.Max() != 7 {
		t.Fatalf("after Set(3): value %d max %d, want 3 and 7", g.Value(), g.Max())
	}
	g.Set(11)
	if g.Max() != 11 {
		t.Fatalf("Max = %d, want 11", g.Max())
	}
}

func TestStockMetricsSnapshot(t *testing.T) {
	var m StockMetrics
	m.Sessions.Inc()
	k := m.Key("deadbeef00112233")
	k.DepthZeros.Set(40)
	k.DepthOnes.Set(8)
	k.GeneratedBits.Add(48)
	k.ServedBits.Add(16)
	k.ServedBatches.Inc()
	k.FillNanos.ObserveDuration(5 * time.Millisecond)

	s := m.Snapshot()
	if s.Sessions != 1 || len(s.Keys) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	row := s.Keys[0]
	if row.Key != "deadbeef00112233" || row.DepthZeros != 40 || row.DepthOnes != 8 ||
		row.GeneratedBits != 48 || row.ServedBits != 16 || row.ServedBatches != 1 {
		t.Fatalf("row = %+v", row)
	}
	if row.FillP50Milli <= 0 {
		t.Errorf("fill p50 = %v, want > 0", row.FillP50Milli)
	}

	// Keys render in stable name order.
	m.Key("aaaa000000000000")
	s = m.Snapshot()
	if len(s.Keys) != 2 || s.Keys[0].Key != "aaaa000000000000" {
		t.Fatalf("keys not sorted: %+v", s.Keys)
	}
}
