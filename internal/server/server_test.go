package server

import (
	"context"
	"crypto/rand"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

var (
	tkOnce sync.Once
	tkKey  *paillier.PrivateKey
	tkErr  error
)

// testKey returns a shared 256-bit test key (generated once per package).
// Importing the paillier package also registers the scheme the sessions
// parse out of the client hello.
func testKey(t testing.TB) homomorphic.PrivateKey {
	t.Helper()
	tkOnce.Do(func() { tkKey, tkErr = paillier.KeyGen(rand.Reader, 256) })
	if tkErr != nil {
		t.Fatalf("KeyGen: %v", tkErr)
	}
	return paillier.SchemeKey{SK: tkKey}
}

// fixture builds a deterministic table and selection with its expected sum.
func fixture(t testing.TB, n, m int) (*database.Table, *database.Selection, *big.Int) {
	t.Helper()
	table, err := database.Generate(n, database.DistSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.GenerateSelection(n, m, database.PatternRandom, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	return table, sel, want
}

// discardLogf silences server logging in tests; the default log.Printf (and
// t.Logf) would race with test completion when background sessions wind
// down.
func discardLogf(string, ...any) {}

// startServer runs a Server on loopback TCP and tears it down with the
// test. It returns the server and its dial address.
func startServer(t *testing.T, table *database.Table, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = discardLogf
	}
	srv, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		select {
		case err := <-errc:
			if err != ErrServerClosed {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return srv, ln.Addr().String()
}

// query runs one complete client session against addr.
func query(t *testing.T, addr string, sk homomorphic.PrivateKey, sel *database.Selection, chunk int) (*big.Int, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return selectedsum.Query(wire.NewConn(conn), sk, sel, chunk, nil)
}

// reconcile asserts the session-counter invariant once the server is idle:
// started = completed + failed, and nothing is left active.
func reconcile(t *testing.T, srv *Server) {
	t.Helper()
	m := srv.Metrics()
	testutil.Eventually(t, 5*time.Second, "active sessions to drain", func() bool {
		return m.ActiveSessions.Value() == 0
	})
	started := m.SessionsStarted.Value()
	completed := m.SessionsCompleted.Value()
	failed := m.SessionsFailed.Value()
	if started != completed+failed {
		t.Errorf("counters do not reconcile: started=%d completed=%d failed=%d", started, completed, failed)
	}
}

func TestSingleSessionEndToEnd(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 50, 25)
	srv, addr := startServer(t, table, Config{})

	sum, err := query(t, addr, sk, sel, 0)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	reconcile(t, srv)
	m := srv.Metrics()
	if m.SessionsCompleted.Value() != 1 || m.SessionsFailed.Value() != 0 {
		t.Errorf("completed=%d failed=%d", m.SessionsCompleted.Value(), m.SessionsFailed.Value())
	}
	if m.BytesIn.Value() == 0 || m.BytesOut.Value() == 0 {
		t.Errorf("byte counters empty: in=%d out=%d", m.BytesIn.Value(), m.BytesOut.Value())
	}
	if m.AbsorbNanos.Snapshot().Count != 1 {
		t.Errorf("absorb histogram count = %d, want 1", m.AbsorbNanos.Snapshot().Count)
	}
}

func TestStress32ConcurrentSessions(t *testing.T) {
	const clients = 32
	sk := testKey(t)
	table, sel, want := fixture(t, 40, 20)
	srv, addr := startServer(t, table, Config{MaxSessions: clients})

	var wg sync.WaitGroup
	errs := make([]error, clients)
	sums := make([]*big.Int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary the chunking so the sessions exercise different frame
			// patterns concurrently.
			sums[i], errs[i] = query(t, addr, sk, sel, 1+i%7)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if sums[i].Cmp(want) != 0 {
			t.Errorf("client %d: sum = %v, want %v", i, sums[i], want)
		}
	}
	reconcile(t, srv)
	m := srv.Metrics()
	if got := m.SessionsCompleted.Value(); got != clients {
		t.Errorf("completed = %d, want %d", got, clients)
	}
	if got := m.SessionsRejected.Value(); got != 0 {
		t.Errorf("rejected = %d, want 0", got)
	}
	if got := m.ActiveSessions.Value(); got != 0 {
		t.Errorf("active gauge = %d, want 0", got)
	}
	if max := m.ActiveSessions.Max(); max < 1 || max > clients {
		t.Errorf("active high-water mark = %d, want in [1,%d]", max, clients)
	}
}
