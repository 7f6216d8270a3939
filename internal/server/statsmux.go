package server

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"privstats/internal/trace"
)

// StatsMuxConfig selects which observability endpoints a daemon's stats
// listener exposes. Nil/false fields are simply not mounted, so the zero
// value is an empty mux and each endpoint is an independent opt-in.
type StatsMuxConfig struct {
	// Stats serves the JSON snapshot at /stats (the original endpoint).
	Stats http.Handler
	// Prom serves the Prometheus text exposition at /metrics.
	Prom http.Handler
	// Traces, when non-nil, serves the recent-trace ring as JSON at /traces.
	Traces *trace.Recorder
	// Jobs, when non-nil, serves the stats-job gateway under /jobs (submit
	// and status; the handler sees paths relative to that prefix).
	Jobs http.Handler
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default: the
	// stats listener is often bound wider than localhost, and profiles are
	// an operational decision, not a free default.
	Pprof bool
	// Admin maps extra daemon-specific endpoints (e.g. the aggregator's
	// POST /reshard) onto the mux, pattern → handler.
	Admin map[string]http.Handler
}

// StatsMux assembles the observability mux a daemon serves on its stats
// listener (see ListenStats). The pprof handlers are mounted
// explicitly rather than via the package's DefaultServeMux side effects, so
// importing net/http/pprof here does NOT expose profiles on any other mux
// in the process.
func StatsMux(cfg StatsMuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	if cfg.Stats != nil {
		mux.Handle("/stats", cfg.Stats)
	}
	if cfg.Prom != nil {
		mux.Handle("/metrics", cfg.Prom)
	}
	if cfg.Traces != nil {
		mux.Handle("/traces", cfg.Traces.Handler())
	}
	if cfg.Jobs != nil {
		mux.Handle("/jobs", http.StripPrefix("/jobs", cfg.Jobs))
		mux.Handle("/jobs/", http.StripPrefix("/jobs", cfg.Jobs))
	}
	for pattern, h := range cfg.Admin {
		mux.Handle(pattern, h)
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// StatsServer is a daemon's observability listener, bound and serving. A nil
// *StatsServer (the endpoint is off) is valid: Shutdown does nothing.
type StatsServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// ListenStats binds addr, then serves StatsMux(cfg) on it in the background.
// Binding comes first so that a typo'd or already-bound address fails
// start-up with the listen error instead of a log line from a goroutine
// while the daemon runs on blind. An empty addr means the endpoint is off:
// (nil, nil).
func ListenStats(addr string, cfg StatsMuxConfig) (*StatsServer, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &StatsServer{srv: &http.Server{Handler: StatsMux(cfg)}, ln: ln, done: make(chan struct{})}
	log.Printf("stats endpoint on http://%s/stats (plus /metrics)", ln.Addr())
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("stats endpoint: %v", err)
		}
	}()
	return s, nil
}

// Addr is the bound address (the resolved port when addr asked for :0).
func (s *StatsServer) Addr() net.Addr { return s.ln.Addr() }

// Done is closed once the listener has stopped serving, whether by Shutdown
// or by a failed accept.
func (s *StatsServer) Done() <-chan struct{} { return s.done }

// Shutdown stops the listener, waiting for in-flight requests until ctx
// expires, and returns once the serving goroutine has exited.
func (s *StatsServer) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
