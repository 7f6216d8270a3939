// Package daemon is the serving lifecycle of the privstats daemons
// (sumserver, sumproxy, stockd and sumjobd) and the flag blocks they and
// sumclient share.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"privstats/internal/server"
)

// signals end serving in every daemon. SIGHUP is among them so that a hangup
// from a dying terminal or a supervisor reload takes the same drain (and
// stockd's stock persist) as SIGTERM.
var signals = []os.Signal{os.Interrupt, syscall.SIGTERM, syscall.SIGHUP}

// Run serves srv on listen until ctx ends or a signal arrives, then drains
// its sessions for up to Grace and logs the final line. The stats listener
// (StatsAddr; srv's trace ring, and pprof per Pprof) is bound first, so a
// bad -stats-addr fails start-up before the session socket opens. listening
// runs once the session socket is bound, with its address, to log the
// daemon's start-up line. Run returns nil after a drain, including the one
// a SessionLimit triggers, and the listen or serve error otherwise; name
// prefixes its log lines.
func (s *Serving) Run(ctx context.Context, name, listen string, srv *server.Server, mux server.StatsMuxConfig, listening func(net.Addr)) error {
	mux.Traces, mux.Pprof = srv.Traces(), s.Pprof
	stats, err := server.ListenStats(s.StatsAddr, mux)
	if err != nil {
		return fmt.Errorf("-stats-addr: %w", err)
	}
	defer stats.Shutdown(context.Background())
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	listening(ln.Addr())

	ctx, stop := signal.NotifyContext(ctx, signals...)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err = <-served:
		// Serve stops by itself after SessionLimit sessions or on a
		// listener fault; either way the drain below still runs.
	case <-ctx.Done():
		log.Printf("shutdown requested; draining up to %v", s.Grace)
	}
	s.drain(name, srv.Shutdown)
	if err == nil {
		err = <-served
	}
	if !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	log.Printf("final: %s", srv.Metrics().Summary())
	return nil
}

// RunHTTP is Run for a daemon whose one listener is HTTP (sumjobd, whose job
// gateway and observability endpoints share it): it serves mux (pprof per
// Pprof) on addr until ctx ends or a signal arrives, then drains open
// requests for up to Grace. listening runs once addr is bound.
func (s *Serving) RunHTTP(ctx context.Context, name, addr string, mux server.StatsMuxConfig, listening func(net.Addr)) error {
	mux.Pprof = s.Pprof
	httpSrv, err := server.ListenStats(addr, mux)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	listening(httpSrv.Addr())

	ctx, stop := signal.NotifyContext(ctx, signals...)
	defer stop()
	select {
	case <-httpSrv.Done():
		return errors.New("HTTP listener stopped")
	case <-ctx.Done():
	}
	log.Printf("shutdown requested; draining up to %v", s.Grace)
	s.drain(name, httpSrv.Shutdown)
	return nil
}

// drain runs shutdown with Grace to finish what is in flight, logging when
// the grace period ran out first.
func (s *Serving) drain(name string, shutdown func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.Grace)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		log.Printf("%s: forced shutdown after grace period: %v", name, err)
	}
}
