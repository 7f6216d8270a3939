package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/wire"
)

// A backend connection outlives its session: the client keeps it after a
// completed session and the server waits on it for the next one. These
// tests count accepted connections, not sessions, to see it.

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// serveCounted is serveOn behind a countingListener.
func serveCounted(t testing.TB, srv *server.Server) (string, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	serveListener(t, srv, cl)
	return ln.Addr().String(), cl
}

// TestSequentialQueriesKeepOneConnection: N queries in a row through an
// aggregator over two shards give the oracle sums, and each hop opens one
// connection for all of them.
func TestSequentialQueriesKeepOneConnection(t *testing.T) {
	sk := testKey(t)
	table, _, _ := fixture(t, 48, 20, 91)
	const k, queries = 2, 5
	shards := make([]Shard, k)
	backends := make([]*countingListener, k)
	for i := range shards {
		lo, hi := i*table.Len()/k, (i+1)*table.Len()/k
		rows, err := table.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(rows, server.Config{Logf: discardLogf})
		if err != nil {
			t.Fatal(err)
		}
		addr, cl := serveCounted(t, srv)
		shards[i], backends[i] = Shard{Lo: lo, Hi: hi, Backends: []string{addr}}, cl
	}
	sm, err := NewShardMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	fanout := NewClient(ClientConfig{})
	agg, err := NewAggregator(sm, fanout)
	if err != nil {
		t.Fatal(err)
	}
	proxySrv, err := server.NewHandler(agg, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	addr, proxy := serveCounted(t, proxySrv)

	client := NewClient(ClientConfig{})
	for q := 0; q < queries; q++ {
		sel, err := database.GenerateSelection(table.Len(), 10+q, database.PatternRandom, int64(q))
		if err != nil {
			t.Fatal(err)
		}
		want, err := table.SelectedSum(sel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.Query(context.Background(), []string{addr}, sk, sel, 7, nil)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("query %d: sum = %v, want %v", q, got, want)
		}
	}
	if n := proxy.accepts.Load(); n != 1 {
		t.Errorf("aggregator accepted %d connections for %d queries, want 1", n, queries)
	}
	for i, b := range backends {
		if n := b.accepts.Load(); n != 1 {
			t.Errorf("shard %d accepted %d connections for %d queries, want 1", i, n, queries)
		}
	}
	if got := proxySrv.Metrics().SessionsCompleted.Value(); got != queries {
		t.Errorf("aggregator completed %d sessions, want %d", got, queries)
	}
	client.CloseIdle()
}

// TestConcurrentQueriesShareKeptConnections: queries from several
// goroutines through one client take and return kept connections
// concurrently; every sum is exact, and no more connections are opened than
// sessions ever ran at once.
func TestConcurrentQueriesShareKeptConnections(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 32, 12, 93)
	srv, err := server.New(table, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	addr, ln := serveCounted(t, srv)
	client := NewClient(ClientConfig{MaxConnsPerBackend: 4})
	const workers, each = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < each; q++ {
				got, err := client.Query(context.Background(), []string{addr}, sk, sel, 6, nil)
				if err == nil && got.Cmp(want) != 0 {
					err = fmt.Errorf("sum = %v, want %v", got, want)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := ln.accepts.Load(); n > 4 {
		t.Errorf("server accepted %d connections; at most 4 sessions ran at once", n)
	}
	if got := srv.Metrics().SessionsCompleted.Value(); got != workers*each {
		t.Errorf("completed = %d, want %d", got, workers*each)
	}
	client.CloseIdle()
}

// closeSignal is a connection that reports its first Close on closed.
type closeSignal struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeSignal) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestKeptConnectionReapedAfterIOTimeout: a kept connection that no session
// takes is closed once it has idled IOTimeout, and leaves the idle list.
func TestKeptConnectionReapedAfterIOTimeout(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 16, 6, 95)
	srv, err := server.New(table, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := serveCounted(t, srv)
	var mu sync.Mutex
	var dialed []*closeSignal
	client := NewClient(ClientConfig{
		IOTimeout: 100 * time.Millisecond,
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			c := &closeSignal{Conn: conn, closed: make(chan struct{})}
			mu.Lock()
			dialed = append(dialed, c)
			mu.Unlock()
			return c, nil
		},
	})
	got, err := client.Query(context.Background(), []string{addr}, sk, sel, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// The connection of the session that completed is the last one dialed.
	mu.Lock()
	conn := dialed[len(dialed)-1]
	mu.Unlock()
	select {
	case <-conn.closed:
	case <-time.After(time.Minute):
		t.Fatal("the kept connection was not closed after idling IOTimeout")
	}
	client.mu.Lock()
	idle := len(client.idle[addr].conns)
	client.mu.Unlock()
	if idle != 0 {
		t.Errorf("%d connections left on the idle list", idle)
	}
}

// oneShotServer answers one session per connection and then closes it, as
// a server from before connections were kept does.
func oneShotServer(t *testing.T, table *database.Table) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := cl.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_ = selectedsum.ServeSource(wire.NewConn(c), table, nil)
			}()
		}
	}()
	return cl
}

// TestOneShotServerInterop: against a server that closes after every
// reply, the kept connection is dead at its next session. That session
// reruns once on a new connection, counts no retry, failover or failure,
// and pauses pooling for a ProbeAfter window: one rerun per window.
func TestOneShotServerInterop(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 24, 9, 17)
	ln := oneShotServer(t, table)
	addr := ln.Addr().String()

	clk := newFakeClock()
	c := NewClient(ClientConfig{ProbeAfter: time.Minute, IOTimeout: 5 * time.Second})
	c.now = clk.now
	calls := 0
	query := func(q int) {
		t.Helper()
		var got interface{ String() string }
		_, err := c.Do(context.Background(), []string{addr}, func(s *Session) error {
			calls++
			sum, err := selectedsum.Query(s.Conn, sk, sel, 5, nil)
			if err == nil {
				got = sum
			}
			return err
		})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("query %d: sum = %v, want %v", q, got, want)
		}
	}

	// Window one: the first query's connection is kept; the second finds
	// it dead and reruns; pooling then pauses, so the third dials afresh.
	for q := 0; q < 3; q++ {
		query(q)
	}
	if calls != 4 {
		t.Errorf("window one: fn ran %d times for 3 queries, want 4 (one rerun)", calls)
	}
	// Window two: the same again, once.
	clk.advance(time.Minute + time.Second)
	for q := 3; q < 6; q++ {
		query(q)
	}
	if calls != 8 {
		t.Errorf("two windows: fn ran %d times for 6 queries, want 8 (one rerun each)", calls)
	}
	if n := ln.accepts.Load(); n != 6 {
		t.Errorf("server accepted %d connections, want 6 (one per session it served)", n)
	}
	s := c.Metrics().Snapshot()
	if s.Retries != 0 || s.Failovers != 0 || s.ShardFailures != 0 {
		t.Errorf("retries=%d failovers=%d shard failures=%d, want all 0", s.Retries, s.Failovers, s.ShardFailures)
	}
	if b := s.Backends[addr]; b.Errors != 0 || b.Sessions != 6 {
		t.Errorf("backend sessions=%d errors=%d, want 6 and 0", b.Sessions, b.Errors)
	}
	if !c.available(addr) {
		t.Error("the one-shot server was marked down")
	}
	c.CloseIdle()
}

// BenchmarkClusterSmallQuery is the small-sessions shape in one binary: a
// 256-row query through an aggregator over two loopback shards, with the
// connections of both hops kept between queries (reused) or closed after
// every query (fresh), as they all were before connections were kept.
func BenchmarkClusterSmallQuery(b *testing.B) {
	sk := testKey(b)
	table, sel, want := fixture(b, 256, 128, 256)
	for _, mode := range []string{"reused", "fresh"} {
		b.Run(mode, func(b *testing.B) {
			addr, _, client := startCluster(b, table, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := client.Query(context.Background(), []string{addr}, sk, sel, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					b.Fatalf("sum = %v, want %v", got, want)
				}
				if mode == "fresh" {
					client.CloseIdle()
				}
			}
		})
	}
}
