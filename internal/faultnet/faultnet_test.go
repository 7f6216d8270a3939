package faultnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"syscall"
	"testing"
	"time"

	"privstats/internal/netsim"
	"privstats/internal/testutil"
)

// pipePair returns two ends of a loopback TCP connection (net.Pipe has no
// buffering, which deadlocks single-goroutine write-then-read tests).
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { a.Close(); r.c.Close() })
	return a, r.c
}

func TestCleanPlanIsTransparent(t *testing.T) {
	a, b := pipePair(t)
	fa := WrapConn(a, Plan{Seed: 1}, 1)
	msg := []byte("no faults armed means no faults fired")
	if _, err := fa.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
	if total := fa.Stats().Total(); total != 0 {
		t.Errorf("injected %d faults on a clean plan", total)
	}
}

func TestResetFaultFires(t *testing.T) {
	a, _ := pipePair(t)
	// Probability 1 arms the reset on every connection; drive ops until the
	// armed op index is reached.
	fa := WrapConn(a, Plan{Write: Spec{Reset: 1}}, 7)
	var err error
	for i := 0; i < maxFaultOp+1; i++ {
		_, err = fa.Write([]byte("x"))
		if err != nil {
			break
		}
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want ECONNRESET", err)
	}
	if s := fa.Stats(); s.Resets != 1 {
		t.Errorf("stats = %+v, want one reset", s)
	}
	// The connection stays dead afterwards.
	if _, err := fa.Write([]byte("y")); !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("post-reset write err = %v", err)
	}
}

func TestCorruptFaultFlipsOneByte(t *testing.T) {
	a, b := pipePair(t)
	fa := WrapConn(a, Plan{Write: Spec{Corrupt: 1}}, 3)
	orig := bytes.Repeat([]byte{0x00}, 64)
	done := make(chan []byte, 1)
	go func() {
		got := make([]byte, len(orig)*(maxFaultOp+1))
		n, _ := io.ReadFull(b, got)
		done <- got[:n]
	}()
	for i := 0; i < maxFaultOp+1; i++ {
		if _, err := fa.Write(orig); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	got := <-done
	diff := 0
	for _, x := range got {
		if x != 0 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
	if s := fa.Stats(); s.Corruptions != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Caller's buffer must not be mutated (corruption is on-wire only).
	for _, x := range orig {
		if x != 0 {
			t.Fatal("writer's buffer was mutated")
		}
	}
}

func TestShortWriteFault(t *testing.T) {
	a, b := pipePair(t)
	go io.Copy(io.Discard, b)
	fa := WrapConn(a, Plan{Write: Spec{ShortWrite: 1}}, 11)
	buf := bytes.Repeat([]byte("z"), 100)
	var short bool
	for i := 0; i < maxFaultOp+1; i++ {
		n, err := fa.Write(buf)
		if err != nil && n < len(buf) {
			short = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !short {
		t.Fatal("short write never fired")
	}
	if s := fa.Stats(); s.ShortWrites != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStallFaultDelays(t *testing.T) {
	a, b := pipePair(t)
	go io.Copy(io.Discard, b)
	fa := WrapConn(a, Plan{Write: Spec{Stall: 1, StallFor: 50 * time.Millisecond}}, 5)
	start := time.Now()
	// One window of writes: its one armed stall fires, the next window's
	// has not begun.
	for i := 0; i < maxFaultOp; i++ {
		if _, err := fa.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("writes took %v, want >= 50ms stall", d)
	}
	if s := fa.Stats(); s.Stalls != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestScheduleKillMidFrame(t *testing.T) {
	a, b := pipePair(t)
	fa := WrapConn(a, Plan{}, 9)
	fa.ScheduleKill(10)
	done := make(chan int, 1)
	go func() {
		got, _ := io.ReadAll(b)
		done <- len(got)
	}()
	n, err := fa.Write(bytes.Repeat([]byte("k"), 64))
	if n != 10 {
		t.Errorf("delivered %d bytes, want 10", n)
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("err = %v, want ECONNRESET", err)
	}
	if got := <-done; got != 10 {
		t.Errorf("peer read %d bytes, want 10", got)
	}
	if s := fa.Stats(); s.Kills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestListenerRefusalAndAccounting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := Listen(ln, Plan{Seed: 42, Refuse: 0.5})
	defer fl.Close()

	// Server: echo everything on each accepted conn.
	go func() {
		for {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()

	const dials = 40
	served := 0
	for i := 0; i < dials; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		// A refused conn is closed server-side before any echo: the write
		// may succeed (buffered) but the read sees EOF.
		if _, err := c.Write([]byte("ping")); err == nil {
			buf := make([]byte, 4)
			if _, err := io.ReadFull(c, buf); err == nil && string(buf) == "ping" {
				served++
			}
		}
		c.Close()
	}
	st := fl.Stats()
	if int(st.Refusals)+served != dials {
		t.Errorf("refusals %d + served %d != dials %d", st.Refusals, served, dials)
	}
	if st.Refusals == 0 || served == 0 {
		t.Errorf("want a mix at 50%%: refusals=%d served=%d", st.Refusals, served)
	}
}

func TestListenerDeterministicAcrossSeeds(t *testing.T) {
	// The same seed must refuse the same accept indices.
	pattern := func(seed int64) []bool {
		rng := rand.New(rand.NewSource(seed))
		out := make([]bool, 64)
		for i := range out {
			out[i] = rng.Float64() < 0.3
		}
		return out
	}
	a, b := pattern(99), pattern(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if c := pattern(100); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Error("different seeds produced identical refusal patterns")
	}
}

func TestDialerRefusal(t *testing.T) {
	d := &Dialer{Plan: Plan{Seed: 4, Refuse: 1}}
	_, err := d.DialContext(context.Background(), "tcp", "127.0.0.1:1")
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("err = %v, want ECONNREFUSED", err)
	}
	if s := d.Stats(); s.Refusals != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDialerCleanPassThrough(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	d := &Dialer{Plan: Plan{Seed: 8}}
	c, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("echo")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "echo" {
		t.Fatalf("echo failed: %q %v", buf, err)
	}
	if _, ok := c.(*Conn); !ok {
		t.Errorf("dialer returned %T, want *faultnet.Conn", c)
	}
}

// Composition: a netsim.Throttle over a faultnet.Conn still paces bytes and
// still surfaces injected faults — the slow-AND-unreliable modem link.
func TestComposesWithNetsimThrottle(t *testing.T) {
	a, b := pipePair(t)
	go io.Copy(io.Discard, b)
	fa := WrapConn(a, Plan{Write: Spec{Reset: 1}}, 13)
	th, err := netsim.NewThrottle(fa, netsim.ShortDistance)
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for i := 0; i < maxFaultOp+1; i++ {
		if _, werr = th.Write([]byte("paced")); werr != nil {
			break
		}
	}
	if !errors.Is(werr, syscall.ECONNRESET) {
		t.Fatalf("err through throttle = %v, want ECONNRESET", werr)
	}
	if s := fa.Stats(); s.Resets != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStatsAddAndTotal(t *testing.T) {
	a := StatsSnapshot{Resets: 1, Corruptions: 2}
	b := StatsSnapshot{Stalls: 3, Kills: 4, Refusals: 5, ShortWrites: 6}
	sum := a.Add(b)
	if sum.Total() != 21 {
		t.Errorf("total = %d, want 21", sum.Total())
	}
	if sum.Resets != 1 || sum.Stalls != 3 || sum.Corruptions != 2 ||
		sum.ShortWrites != 6 || sum.Refusals != 5 || sum.Kills != 4 {
		t.Errorf("sum = %+v", sum)
	}
}

// Per-conn stats must reconcile with the listener aggregate.
func TestListenerConnStatsReconcile(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := Listen(ln, Plan{Seed: 21, Read: Spec{Reset: 0.5}, Write: Spec{Corrupt: 0.5}})
	defer fl.Close()
	go func() {
		for {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 16)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	for i := 0; i < 20; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(time.Second))
		for j := 0; j < maxFaultOp+1; j++ {
			if _, err := c.Write(bytes.Repeat([]byte("r"), 16)); err != nil {
				break
			}
			if _, err := io.ReadFull(c, make([]byte, 16)); err != nil {
				break
			}
		}
		c.Close()
	}
	// The server goroutines observe their resets on their own schedule; wait
	// until the per-conn counts have caught up with the aggregate.
	var sum, agg StatsSnapshot
	testutil.Eventually(t, 5*time.Second, "per-conn stats to sum to the aggregate", func() bool {
		agg = fl.Stats()
		sum = StatsSnapshot{Refusals: agg.Refusals} // refusals are listener-level, not per-conn
		for _, s := range fl.ConnStats() {
			sum = sum.Add(s)
		}
		return sum == agg
	})
	if agg.Total() == 0 {
		t.Errorf("no fault injected: aggregate %+v", agg)
	}
}
