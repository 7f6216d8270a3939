package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/metrics"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// Defaults for zero ClientConfig fields.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultIOTimeout   = 30 * time.Second
	DefaultRetries     = 2
	DefaultBackoff     = 50 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
	DefaultMaxConns    = 8
	DefaultProbeAfter  = 2 * time.Second
)

// ClientConfig tunes the production client runtime. The zero value gets
// the defaults above.
type ClientConfig struct {
	// DialTimeout bounds each TCP connect.
	DialTimeout time.Duration
	// IOTimeout is the per-frame idle/write deadline on backend sessions:
	// a backend that stalls longer than this mid-session fails the attempt
	// (and the attempt fails over). It also bounds how long a kept
	// connection may idle: one idle longer is closed, not reused.
	IOTimeout time.Duration
	// Retries is the extra attempts after the first, spread across the
	// candidate backends. Negative means no retries at all.
	Retries int
	// Backoff is the sleep before retry attempt k, doubled each time
	// (Backoff, 2·Backoff, 4·Backoff, ...) and jittered ±50%.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// MaxConnsPerBackend bounds concurrent sessions per backend, and the
	// idle connections kept per backend between sessions. An idle
	// connection takes no session slot here and no admission slot at the
	// server, which admits each session on a kept connection when its
	// first frame arrives.
	MaxConnsPerBackend int
	// ProbeAfter is how long a backend marked down is skipped before one
	// attempt is let through as a probe; the penalty doubles (capped at
	// 16× ProbeAfter) while probes keep failing.
	ProbeAfter time.Duration
	// DialHedgeAfter, when positive, launches a second dial to the same
	// address if the first has not connected within this delay; the first
	// connection to complete wins and the loser is closed. It bounds the
	// tail a half-open SYN blackhole adds to the attempt, without burning a
	// retry.
	DialHedgeAfter time.Duration
	// Dial overrides the transport dialer — the seam internal/faultnet (and
	// any proxy-aware deployment) plugs into. Nil uses net.Dialer with
	// DialTimeout.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// UseCRC requests CRC32 frame trailers from backends that understand
	// the HelloFlagFrameCRC negotiation. Old servers ignore the flag and
	// the session degrades to plain frames.
	UseCRC bool
	// Metrics receives retry/failover counters and per-backend fan-out
	// histograms; nil allocates a private set.
	Metrics *metrics.ClusterMetrics
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.MaxConnsPerBackend <= 0 {
		c.MaxConnsPerBackend = DefaultMaxConns
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = DefaultProbeAfter
	}
	return c
}

// Client is the production client runtime: per-backend session slots,
// connections kept open across sessions, dial/IO timeouts, bounded retry
// with exponential backoff and jitter, and failover across a candidate
// list steered by per-backend health. One Client is meant to be shared:
// the aggregator uses one for all shards, and cmd/sumclient builds one
// from its flags. All methods are safe for concurrent use.
type Client struct {
	cfg ClientConfig
	m   *metrics.ClusterMetrics

	mu     sync.Mutex
	health map[string]*backendHealth
	slots  map[string]chan struct{}
	idle   map[string]*idlePool

	// now and sleep are stubbed in tests.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient builds a Client; zero config fields get defaults.
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	m := cfg.Metrics
	if m == nil {
		m = &metrics.ClusterMetrics{}
	}
	return &Client{
		cfg:    cfg,
		m:      m,
		health: make(map[string]*backendHealth),
		slots:  make(map[string]chan struct{}),
		idle:   make(map[string]*idlePool),
		now:    time.Now,
		sleep:  sleepCtx,
	}
}

// Metrics returns the client's metrics set.
func (c *Client) Metrics() *metrics.ClusterMetrics { return c.m }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backendHealth is the circuit state for one backend.
type backendHealth struct {
	mu          sync.Mutex
	consecFails int
	downUntil   time.Time
}

func (c *Client) healthOf(addr string) *backendHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[addr]
	if h == nil {
		h = &backendHealth{}
		c.health[addr] = h
	}
	return h
}

// available reports whether addr should be attempted now. A backend is
// down after a failure until its penalty window passes; the first attempt
// after the window is the probe.
func (c *Client) available(addr string) bool {
	h := c.healthOf(addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.consecFails == 0 || c.now().After(h.downUntil)
}

// noteFailure records a failed attempt and (re)arms the down window with
// doubling penalty.
func (c *Client) noteFailure(addr string) {
	h := c.healthOf(addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails++
	penalty := c.cfg.ProbeAfter
	for i := 1; i < h.consecFails && penalty < 16*c.cfg.ProbeAfter; i++ {
		penalty *= 2
	}
	if penalty > 16*c.cfg.ProbeAfter {
		penalty = 16 * c.cfg.ProbeAfter
	}
	h.downUntil = c.now().Add(penalty)
}

// noteSuccess resets the backend's circuit.
func (c *Client) noteSuccess(addr string) {
	h := c.healthOf(addr)
	h.mu.Lock()
	h.consecFails = 0
	h.downUntil = time.Time{}
	h.mu.Unlock()
}

// slot acquires a connection slot for addr, waiting if the per-backend cap
// is saturated. The returned release must be called exactly once.
func (c *Client) slot(ctx context.Context, addr string) (release func(), err error) {
	c.mu.Lock()
	sem := c.slots[addr]
	if sem == nil {
		sem = make(chan struct{}, c.cfg.MaxConnsPerBackend)
		c.slots[addr] = sem
	}
	c.mu.Unlock()
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// pick chooses the next backend to attempt: the first available candidate
// in order (primary preference), or — when every candidate is down — the
// one whose down window expires soonest, so a fully dark group still gets
// probed instead of failing without an attempt.
func (c *Client) pick(backends []string) string {
	for _, b := range backends {
		if c.available(b) {
			return b
		}
	}
	best := backends[0]
	bestUntil := time.Time{}
	for i, b := range backends {
		h := c.healthOf(b)
		h.mu.Lock()
		until := h.downUntil
		h.mu.Unlock()
		if i == 0 || until.Before(bestUntil) {
			best, bestUntil = b, until
		}
	}
	return best
}

// rawDial resolves the configured dialer.
func (c *Client) rawDial(ctx context.Context, addr string) (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(ctx, "tcp", addr)
	}
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// hedgedDial connects to addr, optionally racing a second dial launched
// DialHedgeAfter into the first. First connection wins; the loser (if it
// ever completes) is closed.
func (c *Client) hedgedDial(ctx context.Context, addr string) (net.Conn, error) {
	if c.cfg.DialHedgeAfter <= 0 {
		return c.rawDial(ctx, addr)
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		conn net.Conn
		err  error
	}
	// Cap 2: at most the primary and one hedge, so sends never block and
	// the reaper below can drain stragglers after a winner is picked.
	results := make(chan res, 2)
	launch := func() {
		conn, err := c.rawDial(dctx, addr)
		results <- res{conn, err}
	}
	reap := func(n int) {
		for i := 0; i < n; i++ {
			if r := <-results; r.conn != nil {
				r.conn.Close()
			}
		}
	}
	go launch()
	timer := time.NewTimer(c.cfg.DialHedgeAfter)
	defer timer.Stop()
	launched, received := 1, 0
	var lastErr error
	for {
		select {
		case r := <-results:
			received++
			if r.err == nil {
				if launched > received {
					go reap(launched - received)
				}
				return r.conn, nil
			}
			lastErr = r.err
			if received == launched {
				return nil, lastErr
			}
		case <-timer.C:
			c.m.HedgedDials.Inc()
			launched++
			go launch()
		case <-dctx.Done():
			if launched > received {
				go reap(launched - received)
			}
			return nil, dctx.Err()
		}
	}
}

// idlePool is one backend's connections kept between sessions, newest
// last, and the end of a window in which it keeps none.
type idlePool struct {
	conns    []idleConn
	offUntil time.Time
}

type idleConn struct {
	conn  net.Conn
	since time.Time
}

// poolOf returns addr's idle pool; c.mu must be held.
func (c *Client) poolOf(addr string) *idlePool {
	p := c.idle[addr]
	if p == nil {
		p = &idlePool{}
		c.idle[addr] = p
	}
	return p
}

// takeIdle returns addr's most recently kept connection, or nil. A
// connection idle longer than IOTimeout is closed instead, and with it
// every older one.
func (c *Client) takeIdle(addr string) net.Conn {
	now := c.now()
	c.mu.Lock()
	p := c.poolOf(addr)
	if len(p.conns) == 0 {
		c.mu.Unlock()
		return nil
	}
	last := p.conns[len(p.conns)-1]
	if now.Sub(last.since) <= c.cfg.IOTimeout {
		p.conns = p.conns[:len(p.conns)-1]
		c.mu.Unlock()
		return last.conn
	}
	stale := p.conns
	p.conns = nil
	c.mu.Unlock()
	for _, ic := range stale {
		ic.conn.Close()
	}
	return nil
}

// keep puts conn, whose session completed, on addr's idle list; it closes
// conn instead when the list is full or pooling is paused for addr.
func (c *Client) keep(addr string, conn net.Conn) {
	now := c.now()
	c.mu.Lock()
	p := c.poolOf(addr)
	if now.Before(p.offUntil) || len(p.conns) >= c.cfg.MaxConnsPerBackend {
		c.mu.Unlock()
		conn.Close()
		return
	}
	p.conns = append(p.conns, idleConn{conn: conn, since: now})
	c.mu.Unlock()
}

// pausePooling keeps no connection to addr for one ProbeAfter window: its
// server closed a kept one, as a restarted server or one that closes after
// every reply does.
func (c *Client) pausePooling(addr string) {
	until := c.now().Add(c.cfg.ProbeAfter)
	c.mu.Lock()
	p := c.poolOf(addr)
	p.offUntil = until
	stale := p.conns
	p.conns = nil
	c.mu.Unlock()
	for _, ic := range stale {
		ic.conn.Close()
	}
}

// CloseIdle closes every connection kept between sessions. Sessions in
// flight are untouched, and later ones keep their connections again; a
// daemon calls it on shutdown.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	var stale []idleConn
	for _, p := range c.idle {
		stale = append(stale, p.conns...)
		p.conns = nil
	}
	c.mu.Unlock()
	for _, ic := range stale {
		ic.conn.Close()
	}
}

// newSession frames one session on conn with deadlines armed. Every
// session gets its own wire.Conn, so CRC, trace ID, frame ceiling and meter
// start clean on a kept connection.
func (c *Client) newSession(addr string, conn net.Conn) *Session {
	wc := wire.NewConn(conn)
	wc.SetIdleTimeout(c.cfg.IOTimeout)
	wc.SetWriteTimeout(c.cfg.IOTimeout)
	if c.cfg.UseCRC {
		wc.EnableCRC()
	}
	return &Session{Addr: addr, Conn: wc}
}

// Session is one framed backend session: a fresh framing on a new or kept
// connection.
type Session struct {
	Addr string
	Conn *wire.Conn
}

// closedUnread reports whether a session failed the way one on a
// connection its server had already closed fails: EOF, reset or broken
// pipe before the first reply frame.
func closedUnread(s *Session, err error) bool {
	if _, _, _, framesIn := s.Conn.Meter.Snapshot(); framesIn > 0 {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// IsBusy reports whether err is a server admission-control busy rejection
// — worth retrying elsewhere (or later), unlike a protocol error. New
// servers classify the rejection with wire.CodeBusy; the string check keeps
// pre-code peers working.
func IsBusy(err error) bool {
	if err == nil {
		return false
	}
	if wire.ErrorCodeOf(err) == wire.CodeBusy {
		return true
	}
	return strings.Contains(err.Error(), "busy")
}

// retryable classifies errors worth another attempt: connection-level
// failures, timeouts, busy rejections, and — critically for the chaos
// model — frame corruption (a flipped byte on one attempt says nothing
// about the next) and short writes. Protocol-level rejections (bad vector
// length, unknown scheme, ...) are deterministic and fail fast, as is a
// peer-reported shard-unavailable: the backend already exhausted its own
// candidates, so hammering it from here only stacks retry pyramids.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if IsBusy(err) || wire.IsTimeout(err) {
		return true
	}
	if errors.Is(err, wire.ErrFrameCorrupt) || errors.Is(err, io.ErrShortWrite) {
		return true
	}
	// A declared length past the frame ceiling mid-session is a corrupted
	// (or hostile) header, not a deterministic peer decision: the next
	// attempt's stream is independent, so it gets the corruption verdict.
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return true
	}
	switch wire.ErrorCodeOf(err) {
	case wire.CodeTimeout, wire.CodeCorruptFrame:
		return true
	case wire.CodeShardUnavailable:
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
		return true
	}
	var ne *net.OpError
	return errors.As(err, &ne)
}

// isCorruption reports frame-level corruption, locally detected or
// peer-reported.
func isCorruption(err error) bool {
	return errors.Is(err, wire.ErrFrameCorrupt) || wire.ErrorCodeOf(err) == wire.CodeCorruptFrame
}

// ExhaustedError is returned by Do when every attempt failed: the caller
// (the aggregator's shard fan-out) uses it to classify the shard as
// unavailable rather than the query as malformed.
type ExhaustedError struct {
	Attempts int
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("cluster: all %d attempts failed: %v", e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// backoff returns the jittered sleep before retry attempt k (k = 1 for the
// first retry): Backoff·2^(k-1), capped at MaxBackoff, jittered ±50% so a
// burst of failed fan-outs does not re-converge on the struggling backend
// in lockstep.
func (c *Client) backoff(k int) time.Duration {
	d := c.cfg.Backoff
	for i := 1; i < k && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	if d <= 0 {
		// A zero-valued config (constructed without withDefaults) would
		// make rand.Int63n(0) panic; retry immediately instead.
		return 0
	}
	// Jitter in [0.5d, 1.5d).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// DoStats reports how hard one Do call had to work — the per-request
// counterpart of the aggregate ClusterMetrics, recorded into request
// traces so a slow query can be attributed to its retries.
type DoStats struct {
	// Attempts is the total number of attempts made (1 = first try won).
	Attempts int
	// Retries counts re-attempts against the same backend.
	Retries int
	// Failovers counts switches to a different candidate backend.
	Failovers int
}

// Do runs fn against the candidate backends (primary first) with bounded
// retry, backoff, and failover. fn receives a fresh session and must
// complete one protocol exchange on it, reading every reply frame before it
// returns nil: Do then keeps the session's connection for a later session,
// and closes it after any error. It returns the address that served the
// successful attempt.
func (c *Client) Do(ctx context.Context, backends []string, fn func(s *Session) error) (string, error) {
	addr, _, err := c.DoStats(ctx, backends, fn)
	return addr, err
}

// DoStats is Do, additionally reporting the per-call attempt accounting.
func (c *Client) DoStats(ctx context.Context, backends []string, fn func(s *Session) error) (string, DoStats, error) {
	var st DoStats
	if len(backends) == 0 {
		return "", st, errors.New("cluster: no backends to try")
	}
	attempts := c.cfg.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	lastAddr := ""
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt)); err != nil {
				return "", st, err
			}
		}
		addr := c.pick(backends)
		if attempt > 0 {
			if addr == lastAddr {
				c.m.Retries.Inc()
				st.Retries++
			} else {
				c.m.Failovers.Inc()
				st.Failovers++
			}
		}
		lastAddr = addr
		st.Attempts++
		err := c.attempt(ctx, addr, fn)
		if err == nil {
			return addr, st, nil
		}
		lastErr = fmt.Errorf("backend %s: %w", addr, err)
		if !retryable(err) {
			return "", st, lastErr
		}
		if ctx.Err() != nil {
			return "", st, ctx.Err()
		}
	}
	c.m.ShardFailures.Inc()
	return "", st, &ExhaustedError{Attempts: attempts, Last: lastErr}
}

// attempt runs one session of fn against addr with metrics and health
// bookkeeping.
func (c *Client) attempt(ctx context.Context, addr string, fn func(s *Session) error) error {
	bm := c.m.Backend(addr)
	bm.Sessions.Inc()
	start := c.now()
	err := c.run(ctx, addr, fn)
	if err != nil {
		bm.Errors.Inc()
		if IsBusy(err) {
			bm.Busy.Inc()
		}
		if isCorruption(err) {
			c.m.CorruptFrames.Inc()
		}
		c.noteFailure(addr)
		return err
	}
	bm.FanoutNanos.ObserveDuration(c.now().Sub(start))
	c.noteSuccess(addr)
	return nil
}

// run holds one of addr's session slots while fn runs on a kept connection,
// or on a new one when none is idle. A kept connection that its server had
// already closed costs one rerun of fn on a new connection, which counts as
// neither a retry nor a failure, and pauses pooling for addr. The
// connection is kept again only after a session that completed and was not
// cancelled.
func (c *Client) run(ctx context.Context, addr string, fn func(s *Session) error) error {
	release, err := c.slot(ctx, addr)
	if err != nil {
		return err
	}
	defer release()
	conn := c.takeIdle(addr)
	for kept := conn != nil; ; kept = false {
		if conn == nil {
			if conn, err = c.hedgedDial(ctx, addr); err != nil {
				return fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
		}
		s := c.newSession(addr, conn)
		if err = fn(s); err == nil || !kept || !closedUnread(s, err) {
			break
		}
		conn.Close()
		conn = nil
		c.pausePooling(addr)
	}
	if err == nil && ctx.Err() == nil {
		c.keep(addr, conn)
	} else {
		conn.Close()
	}
	return err
}

// Query runs one selected-sum query with the runtime's full retry/failover
// policy: it encrypts the selection, streams it to a backend in chunks of
// chunkSize, and returns the decrypted sum. backends is the failover list
// (a single address for the classic one-server setup). pool, when non-nil,
// supplies preprocessed bit encryptions; a retried attempt falls back to
// online encryption for whatever the pool has already handed out.
func (c *Client) Query(ctx context.Context, backends []string, sk homomorphic.PrivateKey, sel *database.Selection, chunkSize int, pool homomorphic.EncryptorPool) (*big.Int, error) {
	sums, err := c.QueryColumns(ctx, backends, sk, QuerySpec{Sel: sel, ChunkSize: chunkSize, Pool: pool})
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// QuerySpec describes one multi-column query for QueryColumns.
type QuerySpec struct {
	// Sel is the secret selection (required).
	Sel *database.Selection
	// ChunkSize batches the index stream; 0 sends one chunk.
	ChunkSize int
	// Pool supplies preprocessed bit encryptions; nil encrypts online.
	Pool homomorphic.EncryptorPool
	// Weight, when non-nil, makes the upload slot-packed: selected row i is
	// encrypted as Weight(i) in place of 1, so each fold replies
	// Σ Weight(i)·x_i (selectedsum.PackedSelectionSource).
	Weight func(row int) *big.Int
	// Columns selects the server-side folds (zero means value only).
	Columns wire.ColumnSet
	// TraceID, when non-zero, tags every attempt of the query so one ID
	// stitches the client, aggregator, and shard records together.
	TraceID [16]byte
}

// QueryColumns runs one multi-column selected-sum query with the runtime's
// full retry/failover policy: one uplink of the encrypted selection, one
// decrypted sum per column in spec.Columns (ascending bit order).
func (c *Client) QueryColumns(ctx context.Context, backends []string, sk homomorphic.PrivateKey, spec QuerySpec) ([]*big.Int, error) {
	c.m.Queries.Inc()
	src := selectedsum.SelectionSource(sk, spec.Sel, spec.Pool)
	if spec.Weight != nil {
		src = selectedsum.PackedSelectionSource(sk, spec.Sel, spec.Weight, spec.Pool)
	}
	var sums []*big.Int
	_, err := c.Do(ctx, backends, func(s *Session) (err error) {
		s.Conn.SetTraceID(spec.TraceID)
		sums, err = selectedsum.QueryVector(s.Conn, sk, src, spec.ChunkSize, spec.Columns)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}
