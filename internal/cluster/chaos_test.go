package cluster

import (
	"context"
	"errors"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/faultnet"
	"privstats/internal/server"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// Chaos end-to-end suite: a loopback cluster whose backend links run
// through faultnet under seeded fault plans. The contract under test is the
// paper's correctness-or-nothing guarantee extended to partial failures:
// every query either returns the exact oracle sum or a CLASSIFIED error —
// never a wrong sum, never a partial sum, never an unexplained hang — and
// the injectors' accounting reconciles, and nothing leaks goroutines.
//
// All plans are seeded, so a failing run reproduces with the same seed.

// classified reports whether err is one of the typed verdicts the failure
// model promises: a coded peer error, a retry-exhaustion report, or a
// transport-level error the retry taxonomy recognizes. Free-floating prose
// is NOT classified.
func classified(err error) bool {
	var pe *wire.PeerError
	var ex *ExhaustedError
	var ne net.Error
	return errors.As(err, &pe) || errors.As(err, &ex) || errors.As(err, &ne) ||
		errors.Is(err, context.DeadlineExceeded)
}

// connLog counts the sessions each backend connection served and keeps the
// fault-wrapped connection itself, keyed by the connection's two addresses.
type connLog struct {
	mu       sync.Mutex
	sessions map[string]int
	conns    map[string]*faultnet.Conn
}

func newConnLog() *connLog {
	return &connLog{sessions: make(map[string]int), conns: make(map[string]*faultnet.Conn)}
}

// wrap is the backends' server.Config.WrapConn: called once per session.
// A connection's first session gets the accepted faultnet.Conn itself.
func (l *connLog) wrap(c net.Conn) (*wire.Conn, error) {
	key := c.LocalAddr().String() + "|" + c.RemoteAddr().String()
	l.mu.Lock()
	l.sessions[key]++
	if fc, ok := c.(*faultnet.Conn); ok {
		l.conns[key] = fc
	}
	l.mu.Unlock()
	return wire.NewConn(c), nil
}

// kept reports how many connections served more than one session, and the
// resets injected on them. A reset kills its connection, so every one of
// those landed after the connection's first session.
func (l *connLog) kept() (conns int, resets int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, n := range l.sessions {
		if n > 1 {
			conns++
			if fc := l.conns[key]; fc != nil {
				resets += fc.Stats().Resets
			}
		}
	}
	return conns, resets
}

// startFaultBackend serves shard through the stock server runtime behind a
// fault-injecting listener and returns its address plus the injector.
func startFaultBackend(t *testing.T, shard *database.Table, plan faultnet.Plan, log *connLog) (string, *faultnet.Listener) {
	t.Helper()
	srv, err := server.New(shard, server.Config{Logf: discardLogf, IdleTimeout: time.Second, WrapConn: log.wrap})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Listen(ln, plan)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(fl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		select {
		case <-errc:
		case <-time.After(5 * time.Second):
			t.Error("backend Serve did not return after Shutdown")
		}
	})
	return ln.Addr().String(), fl
}

// chaosCluster is a k-shard, r-replica loopback cluster whose every
// backend link is fault-wrapped.
type chaosCluster struct {
	addr      string         // the proxy clients talk to
	fanout    *Client        // the proxy's backend client (metrics)
	proxy     *server.Server // the hosting runtime (/stats)
	listeners []*faultnet.Listener
	backends  *connLog // sessions per backend connection
	// freshDials closes the fan-out's kept connections before every
	// query, so that every query's fan-out dials its backends.
	freshDials bool
}

// injected sums fault accounting across every backend injector.
func (cc *chaosCluster) injected() faultnet.StatsSnapshot {
	var total faultnet.StatsSnapshot
	for _, fl := range cc.listeners {
		total = total.Add(fl.Stats())
	}
	return total
}

// reconcile checks each listener's aggregate equals the sum of its
// per-connection counters plus its own refusals — injections are neither
// lost nor double-counted.
func (cc *chaosCluster) reconcile(t *testing.T) {
	t.Helper()
	for i, fl := range cc.listeners {
		var perConn faultnet.StatsSnapshot
		for _, s := range fl.ConnStats() {
			perConn = perConn.Add(s)
		}
		agg := fl.Stats()
		perConn.Refusals = agg.Refusals // refusals live on the listener, not a conn
		if perConn != agg {
			t.Errorf("listener %d accounting mismatch: conns+refusals=%+v aggregate=%+v", i, perConn, agg)
		}
	}
}

// startChaosCluster shards table over k shards with r replicated backends
// each, every backend behind planFor(shard, replica), and an aggregator
// with acfg in front fanning out through a client built from ccfg.
func startChaosCluster(t *testing.T, table *database.Table, k, r int, planFor func(shard, replica int) faultnet.Plan, ccfg ClientConfig, acfg AggregatorConfig) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{backends: newConnLog()}
	ranges := make([]Shard, k)
	lo := 0
	for i := 0; i < k; i++ {
		rows := table.Len() / k
		if i < table.Len()%k {
			rows++
		}
		ranges[i] = Shard{Lo: lo, Hi: lo + rows}
		lo += rows
	}
	for i := range ranges {
		shardTable, err := table.Shard(ranges[i].Lo, ranges[i].Hi)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < r; rep++ {
			addr, fl := startFaultBackend(t, shardTable, planFor(i, rep), cc.backends)
			ranges[i].Backends = append(ranges[i].Backends, addr)
			cc.listeners = append(cc.listeners, fl)
		}
	}
	sm, err := NewShardMap(ranges)
	if err != nil {
		t.Fatal(err)
	}
	cc.fanout = NewClient(ccfg)
	agg, err := NewAggregatorWithConfig(sm, cc.fanout, acfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewHandler(agg, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	cc.proxy = srv
	cc.addr = serveOn(t, srv)
	return cc
}

// chaosFixture pins one deterministic table + selection + oracle for the
// whole suite: fixture() is seeded, so every call returns identical data.
func chaosFixture(t *testing.T) (*database.Table, *database.Selection, *big.Int) {
	return fixture(t, 32, 13, 424242)
}

// runChaosQueries fires n sequential queries and tallies the outcomes.
// An incorrect or unclassified result fails the test immediately: those
// are the two outcomes the failure model forbids outright.
func runChaosQueries(t *testing.T, cc *chaosCluster, outer ClientConfig, n int) (correct, failed int) {
	t.Helper()
	sk := testKey(t)
	_, sel, want := chaosFixture(t)
	client := NewClient(outer)
	for q := 0; q < n; q++ {
		if cc.freshDials {
			cc.fanout.CloseIdle()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		got, err := client.Query(ctx, []string{cc.addr}, sk, sel, 8, nil)
		cancel()
		if err != nil {
			if !classified(err) {
				t.Fatalf("query %d: unclassified error: %v", q, err)
			}
			t.Logf("query %d: classified failure: %v", q, err)
			failed++
			continue
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("query %d: WRONG SUM %v, want %v (partial or corrupted sum escaped)", q, got, want)
		}
		correct++
	}
	return correct, failed
}

// chaosFanoutConfig is the proxy→backend client policy shared by the chaos
// tests: enough retries to ride out per-connection faults, a short IO
// deadline so stalls convert to timeouts quickly, CRC trailers on so
// corruption converts to retries instead of wrong sums, and a health
// window long enough that a once-failed backend is skipped rather than
// re-probed on every query.
func chaosFanoutConfig() ClientConfig {
	return ClientConfig{
		Retries:    3,
		Backoff:    2 * time.Millisecond,
		IOTimeout:  300 * time.Millisecond,
		ProbeAfter: 500 * time.Millisecond,
		UseCRC:     true,
	}
}

// chaosOuterConfig is the querying client's policy. The client→proxy link
// is clean in these tests; retries here absorb the proxy's classified
// transient verdicts (busy, timeout) but not fatal ones (shard
// unavailable, protocol).
func chaosOuterConfig() ClientConfig {
	return ClientConfig{
		Retries:    2,
		Backoff:    5 * time.Millisecond,
		IOTimeout:  10 * time.Second,
		ProbeAfter: 10 * time.Millisecond,
		UseCRC:     true,
	}
}

// TestChaosResets: 5% of backend connections (each direction) take a
// connection reset at a random operation. Every query must still resolve
// to the oracle sum (via retry/failover) or a classified error.
func TestChaosResets(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := chaosFixture(t)
	plan := func(shard, rep int) faultnet.Plan {
		return faultnet.Plan{
			Seed:  int64(9000 + shard*10 + rep),
			Read:  faultnet.Spec{Reset: 0.05},
			Write: faultnet.Spec{Reset: 0.05},
		}
	}
	cc := startChaosCluster(t, table, 2, 2, plan, chaosFanoutConfig(), AggregatorConfig{ShardTimeout: 5 * time.Second})
	correct, failed := runChaosQueries(t, cc, chaosOuterConfig(), 40)
	t.Logf("resets: %d correct, %d classified failures, injected %+v", correct, failed, cc.injected())
	if correct == 0 {
		t.Fatal("no query succeeded under 5% resets")
	}
	if inj := cc.injected(); inj.Resets == 0 {
		t.Error("fault plan injected no resets — test is vacuous, adjust seed or rates")
	}
	cc.reconcile(t)
}

// TestChaosReusedConnResets: the backend links of TestChaosResets, with
// the fan-out keeping its connections between queries, so that resets land
// on a kept connection's second and later sessions. Each must be retried or
// classified exactly as a reset on a new connection is.
func TestChaosReusedConnResets(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := chaosFixture(t)
	plan := func(shard, rep int) faultnet.Plan {
		return faultnet.Plan{
			Seed:  int64(9500 + shard*10 + rep),
			Read:  faultnet.Spec{Reset: 0.05},
			Write: faultnet.Spec{Reset: 0.05},
		}
	}
	cc := startChaosCluster(t, table, 2, 2, plan, chaosFanoutConfig(), AggregatorConfig{ShardTimeout: 5 * time.Second})
	correct, failed := runChaosQueries(t, cc, chaosOuterConfig(), 60)
	kept, late := cc.backends.kept()
	cs := cc.fanout.Metrics().Snapshot()
	t.Logf("reused resets: %d correct, %d classified failures, injected %+v", correct, failed, cc.injected())
	t.Logf("%d backend connections served more than one session; %d resets landed on them after their first; fanout retries=%d failovers=%d",
		kept, late, cs.Retries, cs.Failovers)
	if correct == 0 {
		t.Fatal("no query succeeded under 5% resets on kept connections")
	}
	if kept == 0 {
		t.Error("no backend connection served a second session — nothing was reused")
	}
	if late == 0 {
		t.Error("no reset landed on a kept connection's later session — test is vacuous")
	}
	cc.reconcile(t)
}

// TestChaosCorruptionCRC: 8% of backend connections flip one byte in each
// direction, with CRC trailers negotiated end to end. The headline
// assertion lives in runChaosQueries: a flipped ciphertext byte must NEVER
// surface as a wrong sum — CRC converts it to a classified retryable
// error, and the retry produces the oracle sum.
func TestChaosCorruptionCRC(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := chaosFixture(t)
	plan := func(shard, rep int) faultnet.Plan {
		return faultnet.Plan{
			Seed:  int64(7100 + shard*10 + rep),
			Read:  faultnet.Spec{Corrupt: 0.08},
			Write: faultnet.Spec{Corrupt: 0.08},
		}
	}
	cc := startChaosCluster(t, table, 2, 2, plan, chaosFanoutConfig(), AggregatorConfig{ShardTimeout: 5 * time.Second})
	correct, failed := runChaosQueries(t, cc, chaosOuterConfig(), 40)
	t.Logf("corruption: %d correct, %d classified failures, injected %+v", correct, failed, cc.injected())
	if correct == 0 {
		t.Fatal("no query succeeded under corruption")
	}
	if inj := cc.injected(); inj.Corruptions == 0 {
		t.Error("fault plan injected no corruptions — test is vacuous, adjust seed or rates")
	}
	cc.reconcile(t)
}

// TestChaosStragglersAcceptance is the issue's acceptance point: k=4 with
// one replica per shard, 5% resets + 5% corruption on every backend link,
// and two whole backends (the primaries of shards 0 and 1) stalled past
// the fan-out IO deadline on every connection. With retries, failover,
// hedged re-dispatch, and CRC, at least 99% of queries must complete with
// the exact oracle sum; the remainder must fail classified; zero wrong or
// partial sums (runChaosQueries enforces that unconditionally).
func TestChaosStragglersAcceptance(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := chaosFixture(t)
	plan := func(shard, rep int) faultnet.Plan {
		p := faultnet.Plan{
			Seed:  int64(3300 + shard*10 + rep),
			Read:  faultnet.Spec{Reset: 0.05, Corrupt: 0.05},
			Write: faultnet.Spec{Corrupt: 0.05},
		}
		if rep == 0 && shard < 2 {
			// Two stalled backends: every connection to them sleeps far
			// past the fan-out IO deadline at some operation — the
			// slow-loris case that only hedging/deadlines can catch.
			p.Read = faultnet.Spec{Stall: 1, StallFor: 800 * time.Millisecond}
			p.Write = faultnet.Spec{}
		}
		return p
	}
	acfg := AggregatorConfig{ShardTimeout: 5 * time.Second, HedgeAfter: 100 * time.Millisecond}
	cc := startChaosCluster(t, table, 4, 2, plan, chaosFanoutConfig(), acfg)

	const n = 100
	correct, failed := runChaosQueries(t, cc, chaosOuterConfig(), n)
	inj := cc.injected()
	cs := cc.fanout.Metrics().Snapshot()
	t.Logf("acceptance: %d/%d correct, %d classified failures", correct, n, failed)
	t.Logf("injected: %+v", inj)
	t.Logf("fanout: retries=%d failovers=%d hedges=%d hedge_wins=%d corrupt_frames=%d",
		cs.Retries, cs.Failovers, cs.ShardHedges, cs.ShardHedgeWins, cs.CorruptFrames)

	if correct < n*99/100 {
		t.Errorf("%d/%d correct, want >= 99%%", correct, n)
	}
	if correct+failed != n {
		t.Errorf("outcomes do not add up: %d correct + %d failed != %d", correct, failed, n)
	}
	// The run must actually have exercised the machinery it claims to:
	// faults fired, stalls fired, and the resilience paths reacted.
	if inj.Stalls == 0 {
		t.Error("stalled backends never stalled a connection")
	}
	if inj.Resets == 0 && inj.Corruptions == 0 {
		t.Error("no resets or corruptions fired — rates/seed make this vacuous")
	}
	if cs.Retries+cs.Failovers+cs.ShardHedges == 0 {
		t.Error("no retries, failovers, or hedges recorded despite injected faults")
	}
	cc.reconcile(t)
}

// TestChaosMidFrameKill: the next backend connection dies after exactly 40
// bytes — mid-frame. The fan-out client must classify the truncation as
// retryable and the replayed session must produce the oracle sum.
func TestChaosMidFrameKill(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := chaosFixture(t)
	clean := func(shard, rep int) faultnet.Plan { return faultnet.Plan{Seed: int64(100 + shard + rep)} }
	cc := startChaosCluster(t, table, 1, 1, clean, chaosFanoutConfig(), AggregatorConfig{})
	cc.listeners[0].ScheduleKill(40)

	correct, failed := runChaosQueries(t, cc, chaosOuterConfig(), 1)
	if correct != 1 || failed != 0 {
		t.Fatalf("query did not survive a mid-frame kill: %d correct, %d failed", correct, failed)
	}
	if k := cc.listeners[0].Stats().Kills; k != 1 {
		t.Errorf("kills = %d, want 1", k)
	}
	cc.reconcile(t)
}

// TestChaosDialRefusals routes the proxy's fan-out through a
// faultnet.Dialer that refuses 10% of dials: refusals must convert to
// retries/failovers, never to wrong answers or unclassified errors. A
// refusal can only meet a dial, so every query's fan-out dials afresh.
func TestChaosDialRefusals(t *testing.T) {
	testutil.GuardGoroutines(t)
	table, _, _ := chaosFixture(t)
	clean := func(shard, rep int) faultnet.Plan { return faultnet.Plan{Seed: int64(200 + shard + rep)} }
	d := &faultnet.Dialer{Plan: faultnet.Plan{Seed: 77, Refuse: 0.10}}
	ccfg := chaosFanoutConfig()
	ccfg.Dial = d.DialContext
	cc := startChaosCluster(t, table, 2, 2, clean, ccfg, AggregatorConfig{ShardTimeout: 5 * time.Second})
	cc.freshDials = true

	correct, failed := runChaosQueries(t, cc, chaosOuterConfig(), 40)
	t.Logf("refusals: %d correct, %d classified failures, dialer %+v", correct, failed, d.Stats())
	if correct == 0 {
		t.Fatal("no query succeeded under 10% dial refusals")
	}
	if d.Stats().Refusals == 0 {
		t.Error("dialer refused nothing — test is vacuous, adjust seed or rate")
	}
}
