// Package server is the production runtime for the selected-sum protocol's
// database side. The protocol engine (internal/selectedsum) answers exactly
// one session on one framed connection; this package owns everything around
// that: the listener lifecycle, an accept loop that survives transient
// failures, semaphore-based admission control with fast busy rejection,
// per-session deadlines and panic isolation, context-driven graceful
// shutdown, and a live metrics feed (internal/metrics).
//
// The shape mirrors net/http.Server deliberately — New, Serve, Shutdown,
// Close, ErrServerClosed — so operational expectations transfer: Serve
// blocks until shutdown, Shutdown stops accepting and drains in-flight
// sessions until its context expires, Close force-closes everything. Like
// an HTTP keep-alive connection, a connection outlives its session: after a
// clean reply the server waits for the peer's next session on it, holding
// no admission slot while it waits.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"privstats/internal/database"
	"privstats/internal/metrics"
	"privstats/internal/selectedsum"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown or Close, matching the
// net/http convention.
var ErrServerClosed = errors.New("server: closed")

// Defaults for zero Config fields.
const (
	// DefaultMaxSessions caps concurrent sessions when Config.MaxSessions
	// is zero. Each session costs one goroutine plus the homomorphic fold;
	// 64 keeps a stock host responsive under the paper's 1024-bit keys.
	DefaultMaxSessions = 64
	// DefaultRejectTimeout bounds the busy-reply exchange with an
	// over-admission client. Its client-side counterpart is selectedsum's
	// rejectGrace: how long an uploader whose write broke on the hang-up
	// that follows waits for this reply before reporting the bare write
	// error.
	DefaultRejectTimeout = time.Second
	// minAcceptBackoff and maxAcceptBackoff bound the retry delay after a
	// transient Accept failure (e.g. EMFILE), doubling in between.
	minAcceptBackoff = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

// Config tunes a Server. The zero value is serviceable: default admission
// cap, no timeouts, metrics allocated internally, logging via the standard
// logger.
type Config struct {
	// MaxSessions is the admission cap: at most this many sessions run
	// concurrently. A new connection takes its first session's slot when
	// it is accepted; a kept connection takes the next session's slot when
	// that session's first frame arrives, and holds none while it idles in
	// between. A session beyond the cap receives an immediate MsgError busy
	// reply and its connection is closed. Zero means DefaultMaxSessions;
	// negative is rejected by New.
	MaxSessions int

	// SessionLimit, when positive, shuts the server down (gracefully) after
	// this many sessions have finished. cmd/sumserver's -once flag is
	// SessionLimit=1.
	SessionLimit int64

	// IdleTimeout bounds the wait for each client frame: a session whose
	// client goes quiet longer than this is failed with a best-effort
	// MsgError and its slot released. A kept connection that stays quiet
	// this long between sessions is closed without a reply and counts no
	// session. Zero means wait forever.
	IdleTimeout time.Duration

	// WriteTimeout bounds each frame write to a client. Zero means no
	// bound.
	WriteTimeout time.Duration

	// SessionTimeout is an absolute cap on each whole session, enforced as
	// a connection deadline that idle extensions cannot move past and
	// re-armed for every session on a kept connection. Zero means no cap.
	SessionTimeout time.Duration

	// RejectTimeout bounds the busy reply to an over-admission client.
	// Zero means DefaultRejectTimeout.
	RejectTimeout time.Duration

	// LogEvery, when positive, emits a one-line metrics summary to Logf at
	// this interval while the server runs.
	LogEvery time.Duration

	// WrapConn frames one session on an accepted connection, e.g. through
	// a netsim throttle; it is called again for every session on a kept
	// connection, so no framing state outlives its session. Nil means plain
	// wire.NewConn. The server installs its deadline policy on the raw
	// net.Conn regardless of wrapping.
	WrapConn func(net.Conn) (*wire.Conn, error)

	// Metrics receives the server's counters; nil allocates a fresh set
	// (retrievable via Server.Metrics).
	Metrics *metrics.ServerMetrics

	// Traces, when non-nil, records a per-request trace for every session
	// whose Hello carried a trace ID (see internal/trace): the handler's
	// phase spans plus the session outcome land in this ring, served from
	// /traces. Nil disables tracing entirely at zero per-session cost.
	Traces *trace.Recorder

	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Handler answers one protocol session on a framed connection. The default
// handler is the selected-sum fold over a table; the cluster aggregator
// installs its fan-out session instead and inherits the whole runtime —
// admission control, deadlines, panic isolation, graceful shutdown, /stats.
// A handler that returns nil leaves the connection at a session boundary:
// the runtime then waits on it for the peer's next session.
//
// timings is never nil; handlers fill in whatever phases they measure (a
// handler observing a failed session still reports the phases that
// completed). A handler that writes a reply calls timings.Settle just
// before its last reply frame, so that the peer holding the reply already
// sees the session counted; the runtime settles any session it did not.
type Handler interface {
	ServeSession(conn *wire.Conn, timings *selectedsum.PhaseTimings) error
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(conn *wire.Conn, timings *selectedsum.PhaseTimings) error

// ServeSession implements Handler.
func (f HandlerFunc) ServeSession(conn *wire.Conn, timings *selectedsum.PhaseTimings) error {
	return f(conn, timings)
}

// sourceHandler is the stock selected-sum session over one table source —
// in-memory or disk-backed, the session logic is identical.
type sourceHandler struct{ src database.Source }

func (h sourceHandler) ServeSession(conn *wire.Conn, timings *selectedsum.PhaseTimings) error {
	return selectedsum.ServeSource(conn, h.src, timings)
}

// Server runs protocol sessions behind admission control. Create with New
// (table sessions) or NewHandler (any session handler); all methods are
// safe for concurrent use.
type Server struct {
	handler Handler
	cfg     Config
	m       *metrics.ServerMetrics
	logf    func(format string, args ...any)

	sem    chan struct{} // admission slots; len == running sessions
	served atomic.Int64  // finished sessions, for SessionLimit

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]bool // open connections; true while idle between sessions
	closing   bool
	wg        sync.WaitGroup // connection goroutines

	done     chan struct{} // closed when shutdown begins
	doneOnce sync.Once
	logOnce  sync.Once
}

// New builds a Server answering selected-sum sessions against table. The
// table is shared by all sessions and must not be mutated while the server
// runs.
func New(table *database.Table, cfg Config) (*Server, error) {
	if table == nil {
		return nil, errors.New("server: nil table")
	}
	return NewSource(table, cfg)
}

// NewSource builds a Server answering selected-sum sessions against any
// table source — an in-memory Table or a disk-backed column store. The
// source may grow (appends) while the server runs; each session snapshots
// its visible length at the hello.
func NewSource(src database.Source, cfg Config) (*Server, error) {
	if src == nil {
		return nil, errors.New("server: nil source")
	}
	return NewHandler(sourceHandler{src: src}, cfg)
}

// NewHandler builds a Server that runs each admitted session through h.
func NewHandler(h Handler, cfg Config) (*Server, error) {
	if h == nil {
		return nil, errors.New("server: nil handler")
	}
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("server: negative MaxSessions %d", cfg.MaxSessions)
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.RejectTimeout <= 0 {
		cfg.RejectTimeout = DefaultRejectTimeout
	}
	m := cfg.Metrics
	if m == nil {
		m = &metrics.ServerMetrics{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	return &Server{
		handler:   h,
		cfg:       cfg,
		m:         m,
		logf:      logf,
		sem:       make(chan struct{}, cfg.MaxSessions),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]bool),
		done:      make(chan struct{}),
	}, nil
}

// Metrics returns the server's metrics set (the one from Config, or the
// internally allocated one).
func (s *Server) Metrics() *metrics.ServerMetrics { return s.m }

// Traces returns the trace recorder from Config; nil when tracing is off.
func (s *Server) Traces() *trace.Recorder { return s.cfg.Traces }

// ActiveSessions returns the number of sessions currently running; a kept
// connection idling between sessions is not one.
func (s *Server) ActiveSessions() int { return len(s.sem) }

// Serve accepts connections on ln until shutdown, running each admitted one
// as a session. Transient accept errors are retried with exponential
// backoff — the loop never terminates the server on its own (the fix for
// the log.Fatalf fragility this package replaces). Serve returns
// ErrServerClosed after Shutdown or Close, or the accept error if ln was
// closed by someone else.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	s.m.StartClock(time.Now())
	s.startLogLoop()

	backoff := minAcceptBackoff
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.shuttingDown() {
				return ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				// Listener closed under us outside of Shutdown: nothing
				// left to accept, surface it.
				return fmt.Errorf("server: listener closed: %w", err)
			}
			s.m.AcceptErrors.Inc()
			s.logf("server: accept: %v; retrying in %v", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return ErrServerClosed
			}
			if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = minAcceptBackoff
		s.dispatch(conn)
	}
}

// dispatch admits a new connection's first session or rejects it with a
// busy reply.
func (s *Server) dispatch(conn net.Conn) {
	if !s.admit() {
		go s.rejectBusy(conn)
		return
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.sem
		conn.Close()
		return
	}
	s.conns[conn] = false
	s.wg.Add(1)
	s.mu.Unlock()

	go s.serveConn(conn)
}

// admit takes an admission slot for one session, or counts the rejection
// when every slot is in use.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.m.SessionsRejected.Inc()
		return false
	}
}

// rejectBusy tells an over-admission client the server is full, quickly and
// without consuming a session slot. The client may already be streaming its
// index vector, so after sending the error we drain its writes until it
// hangs up (or the reject deadline passes) — closing with unread data would
// RST the connection and could destroy the busy reply before the client
// reads it.
func (s *Server) rejectBusy(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(s.cfg.RejectTimeout))
	wc := wire.NewConn(conn)
	if err := wc.SendErrorCode(wire.CodeBusy, "server busy: all session slots in use, try again later"); err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, conn)
}

// serveConn owns one admitted connection: it runs its first session, then
// every later session the peer opens on it, one at a time. A failed session
// closes the connection; so do a hang-up or an idle timeout between
// sessions, a full server (after its busy reply) and shutdown.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	session := conn
	for {
		s.m.SessionsStarted.Inc()
		s.m.ActiveSessions.Inc()
		start := time.Now()
		err := s.serveSession(session)
		s.m.SessionNanos.ObserveDuration(time.Since(start))
		s.m.ActiveSessions.Dec()
		<-s.sem
		s.noteServed()
		if err != nil {
			return
		}
		if session = s.nextSession(conn); session == nil {
			return
		}
	}
}

// nextSession waits on conn, holding no admission slot, for the header of
// the first frame of the peer's next session, and admits that session. It
// returns the connection to serve it on (the header read ahead put back in
// front), or nil when the connection is to close: the peer hung up or
// stayed quiet past IdleTimeout, shutdown began, or the server is full and
// has sent its busy reply.
func (s *Server) nextSession(conn net.Conn) net.Conn {
	if !s.markIdle(conn, true) {
		return nil
	}
	// The session's deadlines (and its SessionTimeout cap) end with it.
	_ = conn.SetDeadline(time.Time{})
	if s.cfg.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	// Every session opens with a frame, so a whole header is there to
	// read; reading it in one call keeps the reads of a session on a kept
	// connection the same as on a new one.
	var hdr [wire.FrameOverhead]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil || !s.markIdle(conn, false) {
		return nil
	}
	next := &aheadConn{Conn: conn, ahead: hdr[:]}
	if !s.admit() {
		s.rejectBusy(next)
		return nil
	}
	return next
}

// markIdle records conn idling between sessions (or leaving that state).
// It reports false once shutdown has begun: an idle connection is then
// closed, not kept.
func (s *Server) markIdle(conn net.Conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.conns[conn] = idle
	return true
}

// aheadConn is a kept connection whose first frame header the server read
// ahead while it waited for the session; Read returns those bytes first.
type aheadConn struct {
	net.Conn
	ahead []byte
}

func (c *aheadConn) Read(p []byte) (int, error) {
	if len(c.ahead) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.ahead)
	c.ahead = c.ahead[n:]
	return n, nil
}

// serveSession runs one session on conn: framing, deadlines, the protocol
// exchange and its metrics. It converts panics into errors so one poisoned
// session cannot take down the server. The session's outcome is counted at
// most once: when the handler settles it before its last reply frame, or
// else here once it returns.
func (s *Server) serveSession(conn net.Conn) (err error) {
	var phases selectedsum.PhaseTimings
	var settled sync.Once
	phases.Settle = func(err error) {
		settled.Do(func() { s.settle(phases.Trace, err) })
	}
	defer func() {
		if r := recover(); r != nil {
			s.m.SessionPanics.Inc()
			s.logf("server: session from %s panicked: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
			err = fmt.Errorf("server: session panic: %v", r)
		}
		phases.Settle(err)
		if err != nil {
			// A failed write after the handler settled the session is
			// logged here but is not a second outcome.
			s.logf("server: session from %s failed: %v", conn.RemoteAddr(), err)
		}
	}()

	var wc *wire.Conn
	if s.cfg.WrapConn != nil {
		wc, err = s.cfg.WrapConn(conn)
		if err != nil {
			return fmt.Errorf("server: framing connection: %w", err)
		}
	} else {
		wc = wire.NewConn(conn)
	}

	// Deadlines always land on the raw net.Conn, even when WrapConn put a
	// throttle (which has no deadline support) between framing and socket.
	// A SessionTimeout becomes an absolute cap that per-frame idle/write
	// extensions cannot move past.
	dl := wire.Deadliner(conn)
	if s.cfg.SessionTimeout > 0 {
		cap := time.Now().Add(s.cfg.SessionTimeout)
		_ = conn.SetDeadline(cap)
		dl = cappedDeadliner{dl: conn, cap: cap}
	}
	wc.SetDeadliner(dl)
	wc.SetIdleTimeout(s.cfg.IdleTimeout)
	wc.SetWriteTimeout(s.cfg.WriteTimeout)

	if s.cfg.Traces != nil {
		phases.Trace = trace.New(conn.RemoteAddr().String())
	}
	err = s.handler.ServeSession(wc, &phases)

	s.m.HelloNanos.ObserveDuration(phases.Hello)
	s.m.AbsorbNanos.ObserveDuration(phases.Absorb)
	s.m.FinalizeNanos.ObserveDuration(phases.Finalize)
	out, in, _, _ := wc.Meter.Snapshot()
	s.m.BytesIn.Add(in)
	s.m.BytesOut.Add(out)

	if err != nil && wire.IsTimeout(err) {
		err = fmt.Errorf("server: session idle timeout: %w", err)
		phases.Settle(err)
		// Tell the quiet client why it is being hung up on. Best effort:
		// give the write its own short deadline (the expired one was the
		// read side's, but a passed SessionTimeout cap fails this fast,
		// which is fine).
		_ = conn.SetWriteDeadline(time.Now().Add(DefaultRejectTimeout))
		_ = wc.SendErrorCode(wire.CodeTimeout, "session timed out waiting for client")
	}
	return err
}

// settle records a session's outcome: its trace goes to the ring, then the
// completed or failed counter moves.
func (s *Server) settle(tr *trace.Trace, err error) {
	if tr != nil {
		tr.Finish(err)
		// Add drops ID-less traces: a client that sent no trace trailer
		// asked for no trace, and gets none.
		s.cfg.Traces.Add(tr)
	}
	if err != nil {
		s.m.SessionsFailed.Inc()
		return
	}
	s.m.SessionsCompleted.Inc()
}

// noteServed triggers self-shutdown once SessionLimit sessions finished.
func (s *Server) noteServed() {
	if s.cfg.SessionLimit <= 0 {
		return
	}
	if s.served.Add(1) == s.cfg.SessionLimit {
		go s.beginShutdown()
	}
}

// shuttingDown reports whether shutdown has begun.
func (s *Server) shuttingDown() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// beginShutdown stops admission: marks the server closing, closes every
// registered listener and every connection idling between sessions.
// In-flight sessions keep running; each one's connection closes when it
// ends.
func (s *Server) beginShutdown() {
	s.doneOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		// Order matters: mark shutdown (close done) before closing the
		// listeners, so an accept loop seeing net.ErrClosed can tell an
		// intentional shutdown from an externally closed listener.
		close(s.done)
		for ln := range s.listeners {
			ln.Close()
		}
		for conn, idle := range s.conns {
			if idle {
				conn.Close()
			}
		}
		s.mu.Unlock()
	})
}

// Shutdown gracefully stops the server: no new connections are accepted,
// connections idling between sessions are closed at once, and in-flight
// sessions are drained. If ctx expires first, remaining sessions are
// force-closed and ctx's error returned; a clean drain returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.closeHandlerIdle()
		return nil
	case <-ctx.Done():
		s.closeActive()
		<-drained // sessions unblock promptly once their conns are closed
		s.closeHandlerIdle()
		return ctx.Err()
	}
}

// Close force-stops the server: listeners and all connections, idle or in
// a session, are closed immediately.
func (s *Server) Close() error {
	s.beginShutdown()
	s.closeActive()
	s.wg.Wait()
	s.closeHandlerIdle()
	return nil
}

// closeHandlerIdle closes the connections a handler keeps of its own
// between sessions, as the cluster aggregator keeps its backend
// connections, once no session of this server can use them any more.
func (s *Server) closeHandlerIdle() {
	if h, ok := s.handler.(interface{ CloseIdle() }); ok {
		h.CloseIdle()
	}
}

// closeActive force-closes every open connection.
func (s *Server) closeActive() {
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

// startLogLoop emits the periodic metrics summary when configured.
func (s *Server) startLogLoop() {
	if s.cfg.LogEvery <= 0 {
		return
	}
	s.logOnce.Do(func() {
		go func() {
			t := time.NewTicker(s.cfg.LogEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.logf("server: %s", s.m.Summary())
				case <-s.done:
					return
				}
			}
		}()
	})
}

// cappedDeadliner forwards deadline control but never lets a deadline move
// past the session's absolute cap (zero deadlines — "no deadline" — are
// replaced by the cap as well).
type cappedDeadliner struct {
	dl  wire.Deadliner
	cap time.Time
}

func (c cappedDeadliner) SetReadDeadline(t time.Time) error {
	return c.dl.SetReadDeadline(c.clamp(t))
}

func (c cappedDeadliner) SetWriteDeadline(t time.Time) error {
	return c.dl.SetWriteDeadline(c.clamp(t))
}

func (c cappedDeadliner) clamp(t time.Time) time.Time {
	if t.IsZero() || t.After(c.cap) {
		return c.cap
	}
	return t
}
