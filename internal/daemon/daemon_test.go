package daemon

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

func discardLogf(string, ...any) {}

// TestRunDrainsInFlightSession cancels Run's context while a session is in
// its handler: the session socket closes at once, the session still runs to
// completion within the grace period, and only then does Run return.
func TestRunDrainsInFlightSession(t *testing.T) {
	testutil.GuardGoroutines(t)
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	var finished atomic.Bool
	// The first session blocks until released, then replies; the probes
	// that find the socket still open before the drain closes it return at
	// once.
	srv, err := server.NewHandler(server.HandlerFunc(func(conn *wire.Conn, _ *selectedsum.PhaseTimings) error {
		if calls.Add(1) > 1 {
			return nil
		}
		close(started)
		<-release
		finished.Store(true)
		return conn.SendError("drained")
	}), server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}

	s := Serving{StatsAddr: "127.0.0.1:0", Grace: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan net.Addr, 1)
	ran := make(chan error, 1)
	go func() {
		ran <- s.Run(ctx, "test", "127.0.0.1:0", srv, server.StatsMuxConfig{}, func(a net.Addr) { bound <- a })
	}()
	addr := (<-bound).String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-started

	cancel()
	testutil.Eventually(t, 10*time.Second, "the session socket to close", func() bool {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	select {
	case err := <-ran:
		t.Fatalf("Run returned %v with a session in flight", err)
	default:
	}

	close(release)
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run = %v, want nil after a clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after the session finished")
	}
	if !finished.Load() {
		t.Error("Run returned before the in-flight session finished")
	}
	if _, err := io.ReadFull(conn, make([]byte, wire.FrameOverhead)); err != nil {
		t.Errorf("reading the drained session's reply: %v", err)
	}
	m := srv.Metrics()
	if c, f := m.SessionsCompleted.Value(), m.SessionsFailed.Value(); c != calls.Load() || f != 0 {
		t.Errorf("sessions completed=%d failed=%d, want %d and 0", c, f, calls.Load())
	}
}

// TestRunStatsAddrInUseFailsFirst occupies both the stats address and the
// session address: Run must fail on the stats address, before it binds (or
// even tries) the session socket.
func TestRunStatsAddrInUseFailsFirst(t *testing.T) {
	var taken [2]net.Listener
	for i := range taken {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		taken[i] = ln
	}
	srv, err := server.NewHandler(server.HandlerFunc(func(*wire.Conn, *selectedsum.PhaseTimings) error { return nil }),
		server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	s := Serving{StatsAddr: taken[0].Addr().String(), Grace: time.Second}
	err = s.Run(context.Background(), "test", taken[1].Addr().String(), srv, server.StatsMuxConfig{}, func(net.Addr) {
		t.Error("session socket bound despite an unbindable -stats-addr")
	})
	if err == nil || !strings.HasPrefix(err.Error(), "-stats-addr: ") || !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("Run = %v, want a -stats-addr address-in-use error", err)
	}
}
