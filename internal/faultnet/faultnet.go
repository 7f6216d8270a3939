// Package faultnet is the adversarial counterpart of internal/netsim: where
// netsim models *slow* links (the paper's 56 Kbps modem), faultnet models
// *broken* ones. It wraps net.Conn, net.Listener, and dialing with a
// deterministic, seedable fault plan — connection resets, read/write stalls
// (slow-loris), short writes, byte corruption, dial/accept refusals, and
// scheduled mid-frame kills — so the retry, failover, hedging, and
// corruption-detection paths of the cluster can be exercised under load
// instead of trusted on inspection.
//
// Determinism: every random draw comes from a mutex-guarded PRNG seeded by
// Plan.Seed; each accepted or dialed connection derives its own PRNG from
// the seed and a monotonically assigned connection index, so a fixed seed
// produces the same per-connection fault schedule regardless of goroutine
// interleaving.
//
// Faults are armed per window of operations, not rolled per byte: each
// direction of a connection rolls its Spec once for every maxFaultOp Read
// (or Write) calls, so a probability of 0.05 means one window in twenty is
// doomed to that fault, fired at a pseudo-random operation inside it. A
// connection that carries one session meets one or two windows; one kept
// open across many sessions meets a window every few sessions, so reuse
// does not thin the faults out. That keeps the chaos-suite arithmetic
// honest ("5% reset rate" composes predictably with retry budgets) while
// still spreading faults across a connection's lifetime.
//
// Composability: Conn implements net.Conn, so a netsim.Throttle can wrap a
// faultnet.Conn to model a link that is both slow and unreliable, and the
// wire/server deadline plumbing passes straight through.
package faultnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxFaultOp is the length of a fault window: the faults armed for window w
// fire at operations w·maxFaultOp .. (w+1)·maxFaultOp-1 of their direction,
// so in a fresh connection they land anywhere from the first frame of a
// session to well into its upload.
const maxFaultOp = 8

// Spec arms per-direction faults. Each probability is rolled once per
// window of maxFaultOp operations; an armed fault fires at a pseudo-random
// operation (Read or Write call) of its window in that direction.
type Spec struct {
	// Reset closes the connection hard at the chosen operation, surfacing
	// ECONNRESET to the local caller and an EOF/RST to the peer.
	Reset float64
	// Stall sleeps StallFor before the chosen operation proceeds — the
	// slow-loris fault. With StallFor above the peer's IO deadline this is
	// a straggler; below it, jitter.
	Stall float64
	// StallFor is the stall duration (default 250ms when Stall is armed).
	StallFor time.Duration
	// Corrupt flips one pseudo-random byte of the buffer at the chosen
	// operation (after reading / before writing).
	Corrupt float64
	// ShortWrite makes the chosen Write deliver only a prefix and return
	// io.ErrShortWrite via a net.OpError. Write-direction only.
	ShortWrite float64
}

// Plan is one connection population's fault policy.
type Plan struct {
	// Seed drives every random draw. Two wrappers with the same Plan
	// produce the same per-connection schedules.
	Seed int64
	// Read and Write arm direction-specific faults.
	Read, Write Spec
	// Refuse is the probability an Accept (or Dial) is refused: the
	// connection is closed before any byte moves, as a crashed or
	// firewalled peer would.
	Refuse float64
}

// Stats is the fault accounting a wrapper (and each connection) keeps.
// Counters only ever record faults actually injected, so a chaos suite can
// reconcile them against observed session failures.
type Stats struct {
	resets      atomic.Int64
	stalls      atomic.Int64
	corruptions atomic.Int64
	shortWrites atomic.Int64
	refusals    atomic.Int64
	kills       atomic.Int64
}

// StatsSnapshot is the plain-value form of Stats.
type StatsSnapshot struct {
	Resets      int64 `json:"resets"`
	Stalls      int64 `json:"stalls"`
	Corruptions int64 `json:"corruptions"`
	ShortWrites int64 `json:"short_writes"`
	Refusals    int64 `json:"refusals"`
	Kills       int64 `json:"kills"`
}

// Snapshot returns the current counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Resets:      s.resets.Load(),
		Stalls:      s.stalls.Load(),
		Corruptions: s.corruptions.Load(),
		ShortWrites: s.shortWrites.Load(),
		Refusals:    s.refusals.Load(),
		Kills:       s.kills.Load(),
	}
}

// Total returns the sum of every injected fault.
func (s StatsSnapshot) Total() int64 {
	return s.Resets + s.Stalls + s.Corruptions + s.ShortWrites + s.Refusals + s.Kills
}

// Add returns the componentwise sum of two snapshots.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Resets:      s.Resets + o.Resets,
		Stalls:      s.Stalls + o.Stalls,
		Corruptions: s.Corruptions + o.Corruptions,
		ShortWrites: s.ShortWrites + o.ShortWrites,
		Refusals:    s.Refusals + o.Refusals,
		Kills:       s.Kills + o.Kills,
	}
}

// armed is one scheduled fault on one direction of one connection.
type armed struct {
	kind string // "reset", "stall", "corrupt", "short"
	op   int    // fires at the op'th Read/Write in its direction
}

// schedule rolls spec once against rng for the window starting at
// operation base and returns the armed faults.
func schedule(spec Spec, rng *rand.Rand, base int) []armed {
	var out []armed
	roll := func(p float64, kind string) {
		if p > 0 && rng.Float64() < p {
			out = append(out, armed{kind: kind, op: base + rng.Intn(maxFaultOp)})
		}
	}
	roll(spec.Reset, "reset")
	roll(spec.Stall, "stall")
	roll(spec.Corrupt, "corrupt")
	roll(spec.ShortWrite, "short")
	return out
}

// Conn is a net.Conn with an armed fault schedule and per-conn accounting.
type Conn struct {
	net.Conn

	readSpec, writeSpec Spec
	mu                  sync.Mutex
	readFaults          []armed
	writeFaults         []armed
	readOps, writeOps   int
	rng                 *rand.Rand

	killAfter int64 // total bytes (both directions) before a hard close; 0 = off
	bytes     atomic.Int64
	closed    atomic.Bool

	local  Stats  // this connection's injections
	shared *Stats // the owning wrapper's aggregate (may be nil)
}

// WrapConn arms plan's faults on conn with the given seed. Standalone use;
// Listener and Dialer derive seeds automatically.
func WrapConn(conn net.Conn, plan Plan, seed int64) *Conn {
	rng := rand.New(rand.NewSource(seed))
	c := &Conn{
		Conn:      conn,
		readSpec:  plan.Read,
		writeSpec: plan.Write,
		rng:       rng,
	}
	c.readFaults = schedule(plan.Read, rng, 0)
	c.writeFaults = schedule(plan.Write, rng, 0)
	return c
}

// Stats returns this connection's fault accounting.
func (c *Conn) Stats() StatsSnapshot { return c.local.Snapshot() }

// ScheduleKill arms a hard close after n more total bytes (both directions
// combined) have crossed the connection — the mid-frame kill: the closing
// write delivers only the bytes up to the boundary.
func (c *Conn) ScheduleKill(n int64) {
	atomic.StoreInt64(&c.killAfter, c.bytes.Load()+n)
}

func (c *Conn) count(kind string) {
	var fields = map[string]func(*Stats){
		"reset":   func(s *Stats) { s.resets.Add(1) },
		"stall":   func(s *Stats) { s.stalls.Add(1) },
		"corrupt": func(s *Stats) { s.corruptions.Add(1) },
		"short":   func(s *Stats) { s.shortWrites.Add(1) },
		"kill":    func(s *Stats) { s.kills.Add(1) },
	}
	f := fields[kind]
	f(&c.local)
	if c.shared != nil {
		f(c.shared)
	}
}

// due pops the armed faults firing at the current op in one direction,
// arming the next window's first.
func (c *Conn) due(write bool) []armed {
	c.mu.Lock()
	defer c.mu.Unlock()
	faults, op, spec := &c.readFaults, c.readOps, c.readSpec
	if write {
		faults, op, spec = &c.writeFaults, c.writeOps, c.writeSpec
	}
	if op > 0 && op%maxFaultOp == 0 {
		*faults = append(*faults, schedule(spec, c.rng, op)...)
	}
	var fire []armed
	keep := (*faults)[:0]
	for _, a := range *faults {
		if a.op <= op {
			fire = append(fire, a)
		} else {
			keep = append(keep, a)
		}
	}
	*faults = keep
	if write {
		c.writeOps++
	} else {
		c.readOps++
	}
	return fire
}

// resetErr is what a reset fault surfaces locally: the same shape a kernel
// RST produces, so classification code sees realistic errors.
func (c *Conn) resetErr(op string) error {
	c.closed.Store(true)
	_ = c.Conn.Close()
	return &net.OpError{Op: op, Net: "tcp", Err: syscall.ECONNRESET}
}

// stallFor returns the effective stall duration for spec.
func stallFor(spec Spec) time.Duration {
	if spec.StallFor > 0 {
		return spec.StallFor
	}
	return 250 * time.Millisecond
}

// Read injects read-direction faults, then forwards.
func (c *Conn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	}
	corrupt := false
	for _, a := range c.due(false) {
		switch a.kind {
		case "reset":
			c.count("reset")
			return 0, c.resetErr("read")
		case "stall":
			c.count("stall")
			time.Sleep(stallFor(c.readSpec))
		case "corrupt":
			corrupt = true
		}
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		if c.crossedKill(int64(n)) {
			c.count("kill")
			return n, c.resetErr("read")
		}
		if corrupt {
			c.count("corrupt")
			c.flip(p[:n])
		}
	}
	return n, err
}

// Write injects write-direction faults, then forwards.
func (c *Conn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	}
	short := false
	buf := p
	for _, a := range c.due(true) {
		switch a.kind {
		case "reset":
			c.count("reset")
			return 0, c.resetErr("write")
		case "stall":
			c.count("stall")
			time.Sleep(stallFor(c.writeSpec))
		case "corrupt":
			if len(p) > 0 {
				c.count("corrupt")
				buf = append([]byte(nil), p...)
				c.flip(buf)
			}
		case "short":
			if len(p) > 1 {
				short = true
			}
		}
	}
	if kill := atomic.LoadInt64(&c.killAfter); kill > 0 {
		// Mid-frame kill: deliver exactly the bytes up to the boundary,
		// then close, leaving the peer a truncated frame.
		if remain := kill - c.bytes.Load(); remain < int64(len(buf)) {
			if remain < 0 {
				remain = 0
			}
			n, _ := c.Conn.Write(buf[:remain])
			c.bytes.Add(int64(n))
			c.count("kill")
			return n, c.resetErr("write")
		}
	}
	if short {
		c.count("short")
		n, err := c.Conn.Write(buf[:len(buf)/2])
		c.bytes.Add(int64(n))
		if err != nil {
			return n, err
		}
		return n, &net.OpError{Op: "write", Net: "tcp", Err: syscall.EPIPE}
	}
	n, err := c.Conn.Write(buf)
	c.bytes.Add(int64(n))
	return n, err
}

// crossedKill records n read bytes and reports whether the kill boundary
// was crossed by them.
func (c *Conn) crossedKill(n int64) bool {
	kill := atomic.LoadInt64(&c.killAfter)
	total := c.bytes.Add(n)
	return kill > 0 && total >= kill
}

// flip corrupts one pseudo-random byte of b in place.
func (c *Conn) flip(b []byte) {
	if len(b) == 0 {
		return
	}
	c.mu.Lock()
	i := c.rng.Intn(len(b))
	c.mu.Unlock()
	b[i] ^= 0xA5
}

// Close forwards to the wrapped connection.
func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// Listener wraps a net.Listener: accepted connections get fault schedules
// derived from the plan, and a configurable fraction are refused outright.
type Listener struct {
	net.Listener
	plan Plan

	mu      sync.Mutex
	rng     *rand.Rand
	connIdx int64
	conns   []*Conn
	kills   []int64 // pending one-shot ScheduleKill byte counts

	stats Stats
}

// Listen wraps ln with plan.
func Listen(ln net.Listener, plan Plan) *Listener {
	return &Listener{
		Listener: ln,
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
	}
}

// Accept returns the next (possibly fault-armed) connection. Refused
// connections are closed immediately and the accept loop moves on, exactly
// as a listener whose host dropped the SYN-ACK would look to the server.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		refuse := l.plan.Refuse > 0 && l.rng.Float64() < l.plan.Refuse
		idx := l.connIdx
		l.connIdx++
		var kill int64
		if !refuse && len(l.kills) > 0 {
			kill, l.kills = l.kills[0], l.kills[1:]
		}
		l.mu.Unlock()
		if refuse {
			l.stats.refusals.Add(1)
			conn.Close()
			continue
		}
		fc := WrapConn(conn, l.plan, l.plan.Seed^(idx+1)*0x9E3779B9)
		fc.shared = &l.stats
		if kill > 0 {
			fc.ScheduleKill(kill)
		}
		l.mu.Lock()
		l.conns = append(l.conns, fc)
		l.mu.Unlock()
		return fc, nil
	}
}

// ScheduleKill arms a one-shot mid-frame kill: the next accepted connection
// dies after n total bytes. Multiple calls queue up, one per connection.
func (l *Listener) ScheduleKill(n int64) {
	l.mu.Lock()
	l.kills = append(l.kills, n)
	l.mu.Unlock()
}

// Stats returns the aggregate fault accounting across every connection this
// listener produced (plus its own refusals).
func (l *Listener) Stats() StatsSnapshot { return l.stats.Snapshot() }

// ConnStats returns the per-connection accounting, in accept order. The
// chaos suite reconciles the sum of these (plus refusals) against Stats.
func (l *Listener) ConnStats() []StatsSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]StatsSnapshot, len(l.conns))
	for i, c := range l.conns {
		out[i] = c.Stats()
	}
	return out
}

// Dialer produces fault-armed outbound connections: refusals surface as
// ECONNREFUSED dial errors, everything else as faults on the returned conn.
type Dialer struct {
	Plan Plan
	// Timeout bounds each dial (default 5s).
	Timeout time.Duration

	mu      sync.Mutex
	rng     *rand.Rand
	rngInit sync.Once
	connIdx int64

	stats Stats
}

// Stats returns the dialer's aggregate fault accounting.
func (d *Dialer) Stats() StatsSnapshot { return d.stats.Snapshot() }

// DialContext dials addr, injecting dial refusals and arming per-connection
// faults. It matches the cluster client's pluggable dialer signature.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.rngInit.Do(func() { d.rng = rand.New(rand.NewSource(d.Plan.Seed)) })
	d.mu.Lock()
	refuse := d.Plan.Refuse > 0 && d.rng.Float64() < d.Plan.Refuse
	idx := d.connIdx
	d.connIdx++
	d.mu.Unlock()
	if refuse {
		d.stats.refusals.Add(1)
		return nil, &net.OpError{Op: "dial", Net: network, Addr: fakeAddr(addr), Err: syscall.ECONNREFUSED}
	}
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nd := net.Dialer{Timeout: timeout}
	conn, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	fc := WrapConn(conn, d.Plan, d.Plan.Seed^(idx+1)*0x9E3779B9)
	fc.shared = &d.stats
	return fc, nil
}

// fakeAddr lets the synthesized refusal error carry the target address.
type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

var _ net.Conn = (*Conn)(nil)
var _ net.Listener = (*Listener)(nil)
var _ fmt.Stringer = fakeAddr("")
