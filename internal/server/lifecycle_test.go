package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privstats/internal/selectedsum"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// TestIdleClientTimesOutAndReleasesSlot is the ISSUE's idle-timeout
// scenario: a client that goes quiet gets a MsgError, the session is failed
// and its admission slot comes back (no semaphore leak).
func TestIdleClientTimesOutAndReleasesSlot(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{
		MaxSessions: 1,
		IdleTimeout: 60 * time.Millisecond,
	})
	m := srv.Metrics()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// Say nothing; the server must give up and tell us why.
	wc := wire.NewConn(idle)
	wc.SetIdleTimeout(2 * time.Second) // client-side guard so the test can't hang
	f, err := wc.Recv()
	if err != nil {
		t.Fatalf("reading timeout notice: %v", err)
	}
	if f.Type != wire.MsgError || !strings.Contains(string(f.Payload), "timed out") {
		t.Errorf("frame = %#x %q, want timeout MsgError", byte(f.Type), f.Payload)
	}

	testutil.Eventually(t, 2*time.Second, "slot release after timeout", func() bool {
		return m.ActiveSessions.Value() == 0
	})
	if got := m.SessionsFailed.Value(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}

	// The slot must be reusable: a well-behaved client now succeeds.
	sum, err := query(t, addr, sk, sel, 0)
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	reconcile(t, srv)
}

// TestGracefulShutdownDrainsInFlight starts a session, begins shutdown in
// the middle of its index stream, and checks (a) new connections are turned
// away, (b) the in-flight session runs to a correct completion, (c)
// Shutdown returns nil (clean drain).
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 40, 20)
	srv, addr := startServer(t, table, Config{MaxSessions: 4})
	m := srv.Metrics()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	wc.SetIdleTimeout(5 * time.Second)

	// Hand-rolled client so the index stream can pause mid-session.
	pk := sk.PublicKey()
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	n := table.Len()
	half := n / 2
	width := pk.CiphertextSize()
	hello := wire.Hello{
		Version:   wire.Version,
		Scheme:    pk.SchemeName(),
		PublicKey: keyBytes,
		VectorLen: uint64(n),
		ChunkLen:  uint32(half),
	}
	if err := wc.Send(wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	enc := selectedsum.Online{PK: pk}
	body, err := selectedsum.EncryptRange(enc, sel, 0, half, width)
	if err != nil {
		t.Fatal(err)
	}
	chunk := wire.IndexChunk{Offset: 0, Ciphertexts: body, Width: width}
	if err := wc.Send(wire.MsgIndexChunk, chunk.Encode()); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "session to start", func() bool {
		return m.SessionsStarted.Value() == 1
	})

	// Mid-stream: begin graceful shutdown.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	// The listener closes promptly; new clients are refused.
	testutil.Eventually(t, 2*time.Second, "listener to close", func() bool {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})

	// The in-flight session must still finish correctly.
	body, err = selectedsum.EncryptRange(enc, sel, half, n, width)
	if err != nil {
		t.Fatal(err)
	}
	chunk = wire.IndexChunk{Offset: uint64(half), Ciphertexts: body, Width: width}
	if err := wc.Send(wire.MsgIndexChunk, chunk.Encode()); err != nil {
		t.Fatalf("sending tail chunk during drain: %v", err)
	}
	if err := wc.Send(wire.MsgDone, nil); err != nil {
		t.Fatal(err)
	}
	f, err := wc.Recv()
	if err != nil {
		t.Fatalf("reading sum during drain: %v", err)
	}
	if f.Type != wire.MsgSum {
		t.Fatalf("frame = %#x, want MsgSum", byte(f.Type))
	}
	ct, err := pk.ParseCiphertext(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}

	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want nil (clean drain)", err)
	}
	if got := m.SessionsCompleted.Value(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestShutdownForceClosesAfterGrace: a session that never finishes is
// force-closed once the shutdown context expires.
func TestShutdownForceClosesAfterGrace(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := fixture(t, 20, 10)
	srv, err := New(table, Config{MaxSessions: 1, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	stuck, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	m := srv.Metrics()
	testutil.Eventually(t, 2*time.Second, "stuck session to start", func() bool {
		return m.SessionsStarted.Value() == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Errorf("Serve = %v, want ErrServerClosed", err)
	}
	reconcile(t, srv)
	if got := m.SessionsFailed.Value(); got != 1 {
		t.Errorf("failed = %d, want 1 (force-closed session)", got)
	}
}

// flakyListener fails its first n Accepts with a synthetic transient error
// (the EMFILE scenario from the ISSUE), then serves connections from a
// channel.
type flakyListener struct {
	failures atomic.Int64
	conns    chan net.Conn
	closed   chan struct{}
}

type flakyAddr struct{}

func (flakyAddr) Network() string { return "flaky" }
func (flakyAddr) String() string  { return "flaky" }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files (synthetic)")
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *flakyListener) Addr() net.Addr { return flakyAddr{} }

// TestAcceptBackoffSurvivesTransientErrors injects a listener that fails
// several times before yielding a connection: the old accept loop died on
// the first error (log.Fatalf); the server must instead back off, keep the
// listener, count the errors, and then serve the session normally.
func TestAcceptBackoffSurvivesTransientErrors(t *testing.T) {
	testutil.GuardGoroutines(t)
	const failures = 4
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)

	ln := &flakyListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	ln.failures.Store(failures)
	srv, err := New(table, Config{MaxSessions: 2, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	ln.conns <- serverEnd

	sum, err := selectedsum.Query(wire.NewConn(clientEnd), sk, sel, 0, nil)
	if err != nil {
		t.Fatalf("query after flaky accepts: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if got := srv.Metrics().AcceptErrors.Value(); got != failures {
		t.Errorf("accept errors = %d, want %d", got, failures)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Errorf("Serve = %v, want ErrServerClosed", err)
	}
}

// TestSessionLimitServesOnceAndStops covers cmd/sumserver's -once flag:
// with SessionLimit=1 the server answers one session and shuts itself down.
func TestSessionLimitServesOnceAndStops(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, err := New(table, Config{SessionLimit: 1, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sum, err := query(t, ln.Addr().String(), sk, sel, 0)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	select {
	case err := <-serveErr:
		if err != ErrServerClosed {
			t.Errorf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop after the session limit")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestSessionPanicIsIsolated: a panic inside one session (injected through
// the WrapConn hook) is recovered, counted, and leaves the server serving.
func TestSessionPanicIsIsolated(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	var calls atomic.Int64
	srv, addr := startServer(t, table, Config{
		MaxSessions: 2,
		WrapConn: func(c net.Conn) (*wire.Conn, error) {
			if calls.Add(1) == 1 {
				panic("poisoned session")
			}
			return wire.NewConn(c), nil
		},
	})
	m := srv.Metrics()

	if _, err := query(t, addr, sk, sel, 0); err == nil {
		t.Error("first query should fail (server side panicked)")
	}
	testutil.Eventually(t, 2*time.Second, "panicked session cleanup", func() bool {
		return m.ActiveSessions.Value() == 0
	})
	if got := m.SessionPanics.Value(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}

	sum, err := query(t, addr, sk, sel, 0)
	if err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	reconcile(t, srv)
}
