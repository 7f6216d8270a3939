package metrics

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// uptimeLine matches the one clock-dependent line of a /stats document.
var uptimeLine = regexp.MustCompile(`"uptime_seconds": [^,\n]+`)

// TestStatsGolden pins every daemon's /stats JSON document byte for byte —
// key names, nesting, order, indentation, the trailing newline, and that an
// empty labelled list is [] rather than null. The schemas are what scripts
// and dashboards parse; regenerate with UPDATE_GOLDEN=1 only for an
// intentional schema change.
func TestStatsGolden(t *testing.T) {
	f := promFixture()
	for _, tc := range []struct {
		golden string
		h      http.Handler
	}{
		{"stats_server.json", f.sm.Handler()},
		{"stats_proxy.json", ClusterStatsHandler(f.sm, f.cm)},
		{"stats_jobs.json", f.jm.Handler()},
		{"stats_jobs_empty.json", (&JobMetrics{}).Handler()},
		{"stats_stock.json", f.stm.Handler()},
		{"stats_stock_empty.json", (&StockMetrics{}).Handler()},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			rr := httptest.NewRecorder()
			tc.h.ServeHTTP(rr, httptest.NewRequest("GET", "/stats", nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("status = %d", rr.Code)
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if !json.Valid(rr.Body.Bytes()) {
				t.Fatalf("body is not valid JSON:\n%s", rr.Body)
			}
			// The handlers read the wall clock; pin the fixture's (90 s of
			// uptime) so the document is a pure function of the fixture.
			got := uptimeLine.ReplaceAllString(rr.Body.String(), `"uptime_seconds": 90`)
			checkGolden(t, tc.golden, got)
		})
	}
}
