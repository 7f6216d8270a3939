package metrics

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatsGolden pins every daemon's /stats JSON document byte for byte —
// key names, nesting, order, indentation, the trailing newline, and that an
// empty labelled list is [] rather than null. The schemas are what scripts
// and dashboards parse; regenerate with UPDATE_GOLDEN=1 only for an
// intentional schema change.
func TestStatsGolden(t *testing.T) {
	f := promFixture()
	for _, tc := range []struct {
		golden string
		doc    func() any
	}{
		{"stats_server.json", func() any { return f.sm.Snapshot(f.now) }},
		{"stats_proxy.json", func() any { return ProxySnapshot{f.sm.Snapshot(f.now), f.cm.Snapshot()} }},
		{"stats_jobs.json", func() any { return f.jm.Snapshot() }},
		{"stats_jobs_empty.json", func() any { return (&JobMetrics{}).Snapshot() }},
		{"stats_stock.json", func() any { return f.stm.Snapshot() }},
		{"stats_stock_empty.json", func() any { return (&StockMetrics{}).Snapshot() }},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			rr := httptest.NewRecorder()
			StatsHandler(tc.doc).ServeHTTP(rr, httptest.NewRequest("GET", "/stats", nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("status = %d", rr.Code)
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if !json.Valid(rr.Body.Bytes()) {
				t.Fatalf("body is not valid JSON:\n%s", rr.Body)
			}
			checkGolden(t, tc.golden, rr.Body.String())
		})
	}
}
