package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"privstats/internal/metrics"
	"privstats/internal/trace"
)

// TestStatsMuxMounts checks the opt-in matrix: every endpoint is present
// exactly when configured, and pprof stays off the mux unless asked for —
// profiles on a wide-bound stats port must be a deliberate choice.
func TestStatsMuxMounts(t *testing.T) {
	sm := &metrics.ServerMetrics{}
	jobs := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Echo the stripped path so the test can assert the prefix handling.
		w.Header().Set("X-Jobs-Path", r.URL.Path)
	})
	full := StatsMux(StatsMuxConfig{
		Stats:  metrics.StatsHandler(func() any { return sm.Snapshot(time.Now()) }),
		Prom:   metrics.Registry{sm},
		Traces: trace.NewRecorder(4),
		Jobs:   jobs,
		Pprof:  true,
	})
	empty := StatsMux(StatsMuxConfig{})

	cases := []struct {
		path       string
		full, none int
	}{
		{"/stats", http.StatusOK, http.StatusNotFound},
		{"/metrics", http.StatusOK, http.StatusNotFound},
		{"/traces", http.StatusOK, http.StatusNotFound},
		{"/jobs", http.StatusOK, http.StatusNotFound},
		{"/jobs/some-id", http.StatusOK, http.StatusNotFound},
		{"/debug/pprof/", http.StatusOK, http.StatusNotFound},
		{"/debug/pprof/cmdline", http.StatusOK, http.StatusNotFound},
	}
	for _, tc := range cases {
		for _, m := range []struct {
			name string
			mux  *http.ServeMux
			want int
		}{{"full", full, tc.full}, {"empty", empty, tc.none}} {
			rr := httptest.NewRecorder()
			m.mux.ServeHTTP(rr, httptest.NewRequest("GET", tc.path, nil))
			if rr.Code != m.want {
				t.Errorf("%s mux GET %s = %d, want %d", m.name, tc.path, rr.Code, m.want)
			}
		}
	}

	rr := httptest.NewRecorder()
	full.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, metrics.PromContentType)
	}

	// The jobs handler sees paths relative to its /jobs mount.
	for path, want := range map[string]string{"/jobs": "", "/jobs/abc123": "/abc123"} {
		rr := httptest.NewRecorder()
		full.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if got := rr.Header().Get("X-Jobs-Path"); got != want {
			t.Errorf("GET %s reached jobs handler with path %q, want %q", path, got, want)
		}
	}
}

// TestListenStats pins the bind-before-serve contract every daemon's
// -stats-addr relies on: off when empty, a start-up error (not a background
// log line) when the address cannot be bound, and a live endpoint on the
// resolved address otherwise, until Shutdown.
func TestListenStats(t *testing.T) {
	if s, err := ListenStats("", StatsMuxConfig{}); s != nil || err != nil {
		t.Fatalf("empty addr: server=%v err=%v, want off", s, err)
	}
	if err := (*StatsServer)(nil).Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown of an off endpoint: %v", err)
	}

	if _, err := ListenStats("no-such-host.invalid:0", StatsMuxConfig{}); err == nil {
		t.Error("bind on an unresolvable host should fail")
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if _, err := ListenStats(taken.Addr().String(), StatsMuxConfig{}); err == nil {
		t.Error("bind on a taken port should fail")
	}

	s, err := ListenStats("127.0.0.1:0", StatsMuxConfig{Prom: metrics.Registry{&metrics.ServerMetrics{}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	select {
	case <-s.Done():
	default:
		t.Error("Done not closed after Shutdown")
	}
	if _, err := http.Get("http://" + s.Addr().String() + "/metrics"); err == nil {
		t.Error("endpoint still answering after Shutdown")
	}
}
