package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"privstats/internal/selectedsum"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// A connection outlives its session: after a clean reply the server waits
// on it for the peer's next session, holding no admission slot meanwhile.
// These tests drive one TCP connection through several sessions, each on a
// fresh wire.Conn as the cluster client frames them.

// inTap records every byte read from the connection it wraps.
type inTap struct {
	net.Conn
	in bytes.Buffer
}

func (c *inTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

// drain shuts srv down gracefully; once it returns, no counter moves.
func drain(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
}

// TestKeptConnectionServesSessions runs three sessions on one connection: a
// CRC session, then two plain ones. Every sum is exact, the plain sessions
// get plain frames (the CRC switch is the session's, not the
// connection's), and the server's byte counters equal the client's
// per-session meters summed, each session counted once.
func TestKeptConnectionServesSessions(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 30, 12)
	srv, addr := startServer(t, table, Config{})
	m := srv.Metrics()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	tap := &inTap{Conn: raw}

	const sessions = 3
	var out, in int64
	for i := 0; i < sessions; i++ {
		wc := wire.NewConn(tap)
		if i == 0 {
			wc.EnableCRC()
		}
		tap.in.Reset()
		sum, err := selectedsum.Query(wc, sk, sel, 7, nil)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if sum.Cmp(want) != 0 {
			t.Errorf("session %d: sum = %v, want %v", i, sum, want)
		}
		f, _, err := wire.ReadFrame(bytes.NewReader(tap.in.Bytes()))
		if err != nil {
			t.Fatalf("session %d: re-reading the reply: %v", i, err)
		}
		if f.CRC != (i == 0) {
			t.Errorf("session %d: reply CRC = %v, want %v", i, f.CRC, i == 0)
		}
		o, n, _, _ := wc.Meter.Snapshot()
		out, in = out+o, in+n
	}
	if got := m.SessionsCompleted.Value(); got != sessions {
		t.Errorf("completed = %d, want %d", got, sessions)
	}

	raw.Close()
	drain(t, srv)
	if got := m.SessionsStarted.Value(); got != sessions {
		t.Errorf("started = %d, want %d (one connection, %d sessions)", got, sessions, sessions)
	}
	if got := m.SessionsFailed.Value(); got != 0 {
		t.Errorf("failed = %d, want 0: the hang-up between sessions is no session", got)
	}
	if got := m.BytesIn.Value(); got != out {
		t.Errorf("server bytes in = %d, client sent %d", got, out)
	}
	if got := m.BytesOut.Value(); got != in {
		t.Errorf("server bytes out = %d, client received %d", got, in)
	}
}

// TestIdleConnectionHoldsNoSlot: with one admission slot, a connection
// idling after its session leaves the slot free for another connection,
// and is itself served again afterwards.
func TestIdleConnectionHoldsNoSlot(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{MaxSessions: 1})
	m := srv.Metrics()

	kept, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	for i, conn := range []func() (net.Conn, error){
		func() (net.Conn, error) { return kept, nil },
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
		func() (net.Conn, error) { return kept, nil },
	} {
		c, err := conn()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := selectedsum.Query(wire.NewConn(c), sk, sel, 0, nil)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if sum.Cmp(want) != 0 {
			t.Errorf("session %d: sum = %v, want %v", i, sum, want)
		}
		if c != kept {
			c.Close()
		}
		testutil.Eventually(t, 2*time.Second, "the session's slot to come back", func() bool {
			return m.ActiveSessions.Value() == 0
		})
		if got := srv.ActiveSessions(); got != 0 {
			t.Errorf("after session %d: ActiveSessions = %d with only idle connections open", i, got)
		}
	}
	if got := m.SessionsRejected.Value(); got != 0 {
		t.Errorf("rejected = %d, want 0: an idle connection held the slot", got)
	}
}

// TestBusyOnKeptConnection: a kept connection whose next session finds
// every slot taken gets the busy reply, and the connection closes.
func TestBusyOnKeptConnection(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{MaxSessions: 1, RejectTimeout: 100 * time.Millisecond})
	m := srv.Metrics()

	kept, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	if _, err := selectedsum.Query(wire.NewConn(kept), sk, sel, 0, nil); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "the first session's slot to come back", func() bool {
		return m.ActiveSessions.Value() == 0
	})

	// A new connection takes the only slot at accept and keeps it while
	// it says nothing.
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	testutil.Eventually(t, 2*time.Second, "the holder to be admitted", func() bool {
		return m.SessionsStarted.Value() == 2
	})

	wc := wire.NewConn(kept)
	wc.SetIdleTimeout(2 * time.Second)
	_, err = selectedsum.Query(wc, sk, sel, 0, nil)
	if wire.ErrorCodeOf(err) != wire.CodeBusy {
		t.Fatalf("second session on the kept connection: %v, want a busy reply", err)
	}
	if got := m.SessionsRejected.Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// The server drains what the client still sends, then hangs up.
	if _, err := kept.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("kept connection after its busy reply: read err %v, want EOF", err)
	}

	sum, err := selectedsum.Query(wire.NewConn(hold), sk, sel, 0, nil)
	if err != nil {
		t.Fatalf("holder's session: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("holder's sum = %v, want %v", sum, want)
	}
}

// TestLegacyClientClosesAfterReply: a client that hangs up after every
// reply, as every client did before connections were kept, ends each
// connection at the session boundary without a failed session.
func TestLegacyClientClosesAfterReply(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{IdleTimeout: time.Minute})
	m := srv.Metrics()
	const clients = 3
	for i := 0; i < clients; i++ {
		sum, err := query(t, addr, sk, sel, 4)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if sum.Cmp(want) != 0 {
			t.Errorf("client %d: sum = %v, want %v", i, sum, want)
		}
	}
	drain(t, srv)
	if s, c, f := m.SessionsStarted.Value(), m.SessionsCompleted.Value(), m.SessionsFailed.Value(); s != clients || c != clients || f != 0 {
		t.Errorf("started=%d completed=%d failed=%d, want %d, %d, 0", s, c, f, clients, clients)
	}
}

// TestIdleTimeoutBetweenSessionsIsQuiet: a kept connection quiet past
// IdleTimeout after a clean session is closed without a reply frame, and
// counts no failed session.
func TestIdleTimeoutBetweenSessionsIsQuiet(t *testing.T) {
	sk := testKey(t)
	table, sel, _ := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{IdleTimeout: 50 * time.Millisecond})
	m := srv.Metrics()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := selectedsum.Query(wire.NewConn(conn), sk, sel, 0, nil); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
		t.Fatalf("idle kept connection: read %d bytes, err %v; want a quiet close (EOF)", n, err)
	}
	drain(t, srv)
	if f := m.SessionsFailed.Value(); f != 0 {
		t.Errorf("failed = %d, want 0", f)
	}
}

// TestShutdownClosesIdleConnections: Shutdown does not wait on connections
// idling between sessions; it closes them and returns nil at once, and a
// session in flight finishes before its connection closes.
func TestShutdownClosesIdleConnections(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{})
	m := srv.Metrics()

	idle := make([]net.Conn, 3)
	for i := range idle {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := selectedsum.Query(wire.NewConn(c), sk, sel, 0, nil); err != nil {
			t.Fatal(err)
		}
		idle[i] = c
	}
	testutil.Eventually(t, 2*time.Second, "every session to end", func() bool {
		return m.ActiveSessions.Value() == 0
	})

	// A session in flight: its hello is out, the rest is not.
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	bc := wire.NewConn(busy)
	pk := sk.PublicKey()
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{Version: wire.Version, Scheme: pk.SchemeName(), PublicKey: keyBytes, VectorLen: uint64(table.Len())}
	if err := bc.Send(wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "the in-flight session to start", func() bool {
		return m.ActiveSessions.Value() == 1
	})

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	for i, c := range idle {
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("idle connection %d: read err %v, want EOF from Shutdown", i, err)
		}
	}

	width := pk.CiphertextSize()
	body, err := selectedsum.EncryptRange(selectedsum.Online{PK: pk}, sel, 0, table.Len(), width)
	if err != nil {
		t.Fatal(err)
	}
	chunk := wire.IndexChunk{Ciphertexts: body, Width: width}
	if err := bc.Send(wire.MsgIndexChunk, chunk.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := bc.Send(wire.MsgDone, nil); err != nil {
		t.Fatal(err)
	}
	f, err := bc.Recv()
	if err != nil || f.Type != wire.MsgSum {
		t.Fatalf("in-flight session during Shutdown: frame %#x, err %v; want its sum", byte(f.Type), err)
	}
	ct, err := pk.ParseCiphertext(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := sk.Decrypt(ct); err != nil || sum.Cmp(want) != 0 {
		t.Errorf("in-flight sum = %v (err %v), want %v", sum, err, want)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	if _, err := busy.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("in-flight connection after its session: read err %v, want EOF", err)
	}
	if got := m.SessionsCompleted.Value(); got != 4 {
		t.Errorf("completed = %d, want 4", got)
	}
}
