package server

import (
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/selectedsum"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// TestAdmissionBurst16Against4Slots is the ISSUE's acceptance scenario:
// with -max-sessions 4, a burst of 16 connections yields exactly 4 admitted
// sessions; the other 12 receive a busy MsgError within 1s; and the
// admitted 4 all complete correctly. Connections are opened one at a time
// and triage is observed through the metrics, which makes the 4/12 split
// deterministic: the first four take the slots (their sessions idle,
// waiting for a hello that is only sent later), every later connection is
// rejected.
func TestAdmissionBurst16Against4Slots(t *testing.T) {
	const (
		slots = 4
		burst = 16
	)
	sk := testKey(t)
	table, sel, want := fixture(t, 30, 15)
	srv, addr := startServer(t, table, Config{MaxSessions: slots})
	m := srv.Metrics()

	triaged := func() int64 {
		return m.SessionsStarted.Value() + m.SessionsRejected.Value()
	}

	conns := make([]net.Conn, 0, burst)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < burst; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
		n := int64(i + 1)
		testutil.Eventually(t, 2*time.Second, "connection triage", func() bool { return triaged() == n })
	}

	if got := m.SessionsStarted.Value(); got != slots {
		t.Errorf("started = %d, want %d", got, slots)
	}
	if got := m.SessionsRejected.Value(); got != burst-slots {
		t.Errorf("rejected = %d, want %d", got, burst-slots)
	}
	if got := m.ActiveSessions.Value(); got != slots {
		t.Errorf("active = %d, want %d", got, slots)
	}

	// Every rejected connection must deliver a busy MsgError within 1s.
	for i := slots; i < burst; i++ {
		start := time.Now()
		wc := wire.NewConn(conns[i])
		wc.SetIdleTimeout(time.Second)
		f, err := wc.Recv()
		if err != nil {
			t.Fatalf("rejected conn %d: reading busy reply: %v", i, err)
		}
		if f.Type != wire.MsgError || !strings.Contains(string(f.Payload), "busy") {
			t.Errorf("rejected conn %d: frame %#x %q, want busy MsgError", i, byte(f.Type), f.Payload)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("rejected conn %d: busy reply took %v, want <1s", i, d)
		}
	}

	// The four admitted connections now run their sessions concurrently
	// and must all produce the correct sum.
	var wg sync.WaitGroup
	sums := make([]*big.Int, slots)
	errs := make([]error, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = selectedsum.Query(wire.NewConn(conns[i]), sk, sel, 8, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < slots; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted conn %d: %v", i, errs[i])
		}
		if sums[i].Cmp(want) != 0 {
			t.Errorf("admitted conn %d: sum = %v, want %v", i, sums[i], want)
		}
	}

	reconcile(t, srv)
	// The concurrency cap held for the whole burst.
	if max := m.ActiveSessions.Max(); max != slots {
		t.Errorf("active high-water mark = %d, want exactly %d", max, slots)
	}
	if got := m.SessionsCompleted.Value(); got != slots {
		t.Errorf("completed = %d, want %d", got, slots)
	}
}

// TestRejectedSlotNeverConsumed checks a rejected connection does not leak
// an admission slot: after the busy reply the cap is still fully available.
func TestRejectedSlotNeverConsumed(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 20, 10)
	srv, addr := startServer(t, table, Config{MaxSessions: 1})
	m := srv.Metrics()

	// Occupy the only slot with a connection that never speaks.
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "slot occupied", func() bool {
		return m.SessionsStarted.Value() == 1
	})

	// Overflow connection gets rejected.
	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	wc := wire.NewConn(over)
	wc.SetIdleTimeout(time.Second)
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgError {
		t.Fatalf("overflow conn: frame %v err %v, want MsgError", f, err)
	}

	// Release the slot; the next client must get in and succeed.
	hold.Close()
	testutil.Eventually(t, 2*time.Second, "slot released", func() bool {
		return m.ActiveSessions.Value() == 0
	})
	sum, err := query(t, addr, sk, sel, 0)
	if err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	reconcile(t, srv)
}
