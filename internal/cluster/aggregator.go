package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"privstats/internal/homomorphic"
	"privstats/internal/metrics"
	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// errAborted marks a shard attempt cancelled because the client session
// died; it is deliberately not retryable.
var errAborted = errors.New("cluster: client session aborted")

// ErrShardUnavailable is the classified partial-failure verdict: a shard
// exhausted every candidate backend (or its deadline), so the whole query
// fails. It is reported to the client as wire.CodeShardUnavailable and
// NEVER as a partial sum — a sum over a subset of shards would both be
// wrong and leak which rows were reachable, violating the privacy contract
// (the client must learn exactly the selected total or nothing).
var ErrShardUnavailable error = shardUnavailable{}

type shardUnavailable struct{}

func (shardUnavailable) Error() string { return "cluster: shard unavailable" }

// ErrorCode makes the session loop report the verdict coded.
func (shardUnavailable) ErrorCode() wire.ErrorCode { return wire.CodeShardUnavailable }

// AggregatorConfig tunes the fan-out's failure policy. The zero value
// disables both knobs (no per-shard deadline, no hedging).
type AggregatorConfig struct {
	// ShardTimeout bounds one shard's whole fan-out (dial through partial
	// sum, across retries). A shard past its deadline is classified
	// unavailable. Zero means no deadline beyond the client runtime's
	// per-frame IO timeouts.
	ShardTimeout time.Duration
	// HedgeAfter, when positive and the shard has a replica, launches a
	// second full shard session against the rotated backend list if the
	// primary has not delivered a partial sum within HedgeAfter of the
	// upload completing. First success wins; the loser is cancelled. This
	// is straggler detection: a stalled-but-alive backend (slow-loris)
	// never trips the dial or busy paths, only this one.
	HedgeAfter time.Duration
}

// Aggregator answers one logical selected-sum session by fanning the
// client's encrypted index vector out to sharded backends and combining
// their encrypted partial sums. It implements server.Handler, so it hosts
// on the PR-1 production runtime and inherits admission control, deadlines,
// panic isolation, graceful shutdown, and /stats.
//
// The aggregator is untrusted for privacy: every byte it touches is a
// ciphertext under the client's key. It learns the shard topology (which
// it already knows) and traffic shape — never the selection, the partials,
// or the total.
type Aggregator struct {
	epochs *Epochs
	client *Client
	cfg    AggregatorConfig
	m      *metrics.ClusterMetrics
}

// NewAggregator builds an aggregator over the shard map, fanning out
// through client (which owns the retry/failover policy and the metrics).
func NewAggregator(shards *ShardMap, client *Client) (*Aggregator, error) {
	return NewAggregatorWithConfig(shards, client, AggregatorConfig{})
}

// NewAggregatorWithConfig is NewAggregator with the failure policy knobs.
// The map is wrapped in a single-epoch register; Epochs returns it for live
// resharding.
func NewAggregatorWithConfig(shards *ShardMap, client *Client, cfg AggregatorConfig) (*Aggregator, error) {
	epochs, err := NewEpochs(shards)
	if err != nil {
		return nil, err
	}
	return NewEpochAggregator(epochs, client, cfg)
}

// NewEpochAggregator builds an aggregator over a shard-map epoch register.
// Each session pins the epoch current at its hello and runs entirely under
// that map; an Advance mid-session affects only later sessions.
func NewEpochAggregator(epochs *Epochs, client *Client, cfg AggregatorConfig) (*Aggregator, error) {
	if epochs == nil {
		return nil, errors.New("cluster: nil epoch register")
	}
	if client == nil {
		return nil, errors.New("cluster: nil client")
	}
	return &Aggregator{epochs: epochs, client: client, cfg: cfg, m: client.Metrics()}, nil
}

// Epochs returns the aggregator's shard-map register, for wiring into an
// admin reshard endpoint.
func (a *Aggregator) Epochs() *Epochs { return a.epochs }

var _ server.Handler = (*Aggregator)(nil)

// CloseIdle closes the backend connections the aggregator keeps between
// sessions. The hosting server calls it when it stops.
func (a *Aggregator) CloseIdle() { a.client.CloseIdle() }

// shardBuffer hands a shard's chunk slices to its fan-out worker. It
// retains everything so a failed backend attempt can be replayed against a
// replica from the start: the first attempt streams through the buffer as
// it fills (pipelining with the client upload), a failover replays it.
type shardBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []*wire.IndexChunk // shard-local slices, still in global row coordinates
	closed bool
	abort  error
	// done is closed when the upload completes — the hedge timer's start
	// signal (hedging before the buffer is replayable would be wasted work).
	done chan struct{}
}

func newShardBuffer() *shardBuffer {
	b := &shardBuffer{done: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *shardBuffer) append(c *wire.IndexChunk) {
	b.mu.Lock()
	b.chunks = append(b.chunks, c)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// close marks the upload complete (the client sent MsgDone).
func (b *shardBuffer) close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.done)
	}
	b.cond.Broadcast()
}

// abortWith wakes any waiting worker with a terminal error.
func (b *shardBuffer) abortWith(err error) {
	b.mu.Lock()
	if b.abort == nil {
		b.abort = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// next returns chunk i, blocking until it exists. A nil chunk means the
// upload completed before chunk i (end of stream).
func (b *shardBuffer) next(i int) (*wire.IndexChunk, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.abort != nil {
			return nil, b.abort
		}
		if i < len(b.chunks) {
			return b.chunks[i], nil
		}
		if b.closed {
			return nil, nil
		}
		b.cond.Wait()
	}
}

// ServeSession implements server.Handler: one aggregated selected-sum
// session, run by the protocol's one server loop over a fan-out sink. Phase
// timings map naturally: Hello is parse + fan-out setup, Absorb is the
// split-and-forward work, Finalize is the homomorphic combine.
func (a *Aggregator) ServeSession(conn *wire.Conn, timings *selectedsum.PhaseTimings) error {
	a.m.Queries.Inc()
	return selectedsum.ServeSink(conn, &fanout{a: a}, timings)
}

// shardResult is one shard worker's verdict.
type shardResult struct {
	i   int
	cts []homomorphic.Ciphertext
	err error
}

// fanout is the aggregator's selectedsum.Sink: it splits each client chunk
// along shard boundaries into per-shard buffers that concurrent workers
// stream to the backends, and combines the shards' encrypted partials.
type fanout struct {
	a     *Aggregator
	hello *wire.Hello // the client's, the template of every shard hello
	pk    homomorphic.PublicKey
	tr    *trace.Trace

	shards   []Shard
	bufs     []*shardBuffer
	cancel   context.CancelFunc
	results  chan shardResult
	pending  int
	partials [][]homomorphic.Ciphertext
}

// Open pins the session to the shard-map epoch current at its hello. Every
// row-range decision — length validation, chunk splitting, fan-out, combine
// — uses this one map, even if a rebalance advances the register
// mid-session: mixing maps could double-count or drop rows. It then starts
// one worker per shard; the column set is forwarded verbatim to every
// shard, each backend replies with one partial per column and the combine
// runs column-wise.
func (f *fanout) Open(hello *wire.Hello, pk homomorphic.PublicKey, tr *trace.Trace) error {
	epoch, smap := f.a.epochs.Current()
	f.a.m.Epoch.Set(int64(epoch))
	if hello.RowOffset != 0 {
		return fmt.Errorf("cluster: aggregator serves the whole logical database, got row offset %d", hello.RowOffset)
	}
	if hello.VectorLen != uint64(smap.Rows()) {
		return fmt.Errorf("%w: client announces %d rows, cluster serves %d", selectedsum.ErrVectorLength, hello.VectorLen, smap.Rows())
	}
	// The fan-out is traced under the client's ID: one span per shard
	// dispatch with backend, attempt, and hedge annotations — the "why was
	// THIS query slow" record. Only timings and topology, never ciphertexts.
	tr.SetRole("aggregator")
	tr.Annotate("shards", strconv.Itoa(smap.Len()))
	tr.Annotate("epoch", strconv.FormatUint(epoch, 10))

	ctx, cancel := context.WithCancel(context.Background())
	f.hello, f.pk, f.tr, f.cancel = hello, pk, tr, cancel
	f.shards = smap.Shards()
	f.pending = len(f.shards)
	f.bufs = make([]*shardBuffer, len(f.shards))
	f.partials = make([][]homomorphic.Ciphertext, len(f.shards))
	f.results = make(chan shardResult, len(f.shards))
	for i := range f.shards {
		f.bufs[i] = newShardBuffer()
		go func() {
			cts, err := f.queryShard(ctx, i)
			f.results <- shardResult{i: i, cts: cts, err: err}
		}()
	}
	return nil
}

// Abort wakes every worker with the terminal verdict and cancels their
// backend sessions.
func (f *fanout) Abort() {
	for _, b := range f.bufs {
		b.abortWith(errAborted)
	}
	f.cancel()
}

// collect takes one worker result. A failure is labelled and classified: an
// exhausted candidate list or a blown shard deadline means the shard (not
// the query) is the problem, and the client hears shard-unavailable.
func (f *fanout) collect(r shardResult) error {
	f.pending--
	if r.err == nil {
		f.partials[r.i] = r.cts
		return nil
	}
	err := r.err
	var ex *ExhaustedError
	if errors.As(err, &ex) || errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %v", ErrShardUnavailable, err)
	}
	return fmt.Errorf("cluster: shard %d [%d,%d): %w", r.i, f.shards[r.i].Lo, f.shards[r.i].Hi, err)
}

// poll collects the workers that have already finished, without blocking.
func (f *fanout) poll() error {
	for {
		select {
		case r := <-f.results:
			if err := f.collect(r); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// Absorb slices the chunk along shard boundaries. The chunk's bytes are the
// session's receive buffer, so they are copied once, here: the shard buffers
// keep their slices for a failover replay long after Absorb returns. A shard
// already known dead fails the session now, not after the client uploads the
// rest of the vector.
func (f *fanout) Absorb(chunk *wire.IndexChunk) error {
	if err := f.poll(); err != nil {
		return err
	}
	cts := bytes.Clone(chunk.Ciphertexts)
	width := uint64(chunk.Width)
	first, last := chunk.Offset, chunk.Offset+uint64(chunk.Count())
	for i, s := range f.shards {
		lo, hi := max(uint64(s.Lo), first), min(uint64(s.Hi), last)
		if lo >= hi {
			continue
		}
		f.bufs[i].append(&wire.IndexChunk{Offset: lo, Ciphertexts: cts[(lo-first)*width : (hi-first)*width], Width: chunk.Width})
	}
	return nil
}

// Done ends every shard's upload and waits for the partials.
func (f *fanout) Done() error {
	for _, b := range f.bufs {
		b.close()
	}
	for f.pending > 0 {
		if err := f.collect(<-f.results); err != nil {
			return err
		}
	}
	return nil
}

// Finish combines column-wise: Π_s partials[s][c] = E(Σ shard sums of column
// c) = E(total of column c), k−1 multiplications and nothing else. Every
// partial is a shard's sealed reply, rerandomized with a fresh r^N the
// aggregator never sees, so their product is already a fresh encryption of
// the total: one honest shard makes its randomness uniform, and a second
// rerandomization here would add no privacy (DESIGN.md §6, §9). Replies go
// out in the same ascending-bit order the backends used, so the aggregator
// is column-order transparent.
func (f *fanout) Finish() ([]homomorphic.Ciphertext, error) {
	defer f.cancel()
	start := time.Now()
	replies := make([]homomorphic.Ciphertext, len(f.partials[0]))
	for c := range replies {
		acc := f.partials[0][c]
		for _, p := range f.partials[1:] {
			var err error
			if acc, err = f.pk.Add(acc, p[c]); err != nil {
				return nil, fmt.Errorf("cluster: combining partials: %w", err)
			}
		}
		replies[c] = acc
	}
	f.a.m.CombineNanos.ObserveDuration(time.Since(start))
	return replies, nil
}

func (f *fanout) Spans() (absorb, finish string) { return "split", "combine" }

// queryShard runs one shard's fan-out: per-shard deadline, the client
// runtime's retry/failover inside each dispatch, and — when configured and
// a replica exists — a hedged re-dispatch against the rotated backend list
// if the primary is still silent HedgeAfter past upload completion. The
// shard buffer retains everything and hands out chunks by index, so two
// dispatches can replay it concurrently.
func (f *fanout) queryShard(ctx context.Context, idx int) ([]homomorphic.Ciphertext, error) {
	a, s := f.a, f.shards[idx]
	if a.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.ShardTimeout)
		defer cancel()
	}
	if a.cfg.HedgeAfter <= 0 || len(s.Backends) < 2 {
		return f.dispatchShard(ctx, idx, s.Backends, false)
	}

	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	type outcome struct {
		cts   []homomorphic.Ciphertext
		err   error
		hedge bool
	}
	outc := make(chan outcome, 2)
	launch := func(backends []string, hedge bool) {
		cts, err := f.dispatchShard(rctx, idx, backends, hedge)
		outc <- outcome{cts, err, hedge}
	}
	go launch(s.Backends, false)

	// The hedge clock starts when the upload completes: before that the
	// primary is throughput-bound on the client, and a hedge would just
	// double the fan-out bytes for nothing.
	hedgec := make(chan struct{}, 1)
	go func() {
		select {
		case <-f.bufs[idx].done:
		case <-rctx.Done():
			return
		}
		t := time.NewTimer(a.cfg.HedgeAfter)
		defer t.Stop()
		select {
		case <-t.C:
			hedgec <- struct{}{}
		case <-rctx.Done():
		}
	}()

	rotated := append(append([]string{}, s.Backends[1:]...), s.Backends[0])
	launched, received := 1, 0
	var lastErr error
	for {
		select {
		case o := <-outc:
			received++
			if o.err == nil {
				if o.hedge {
					a.m.ShardHedgeWins.Inc()
				}
				rcancel()
				if launched > received {
					go func(n int) { // drain the loser so launch never blocks
						for i := 0; i < n; i++ {
							<-outc
						}
					}(launched - received)
				}
				return o.cts, nil
			}
			lastErr = o.err
			if received == launched {
				return nil, lastErr
			}
		case <-hedgec:
			a.m.ShardHedges.Inc()
			launched++
			go launch(rotated, true)
		}
	}
}

// dispatchShard is one full shard session with the client runtime's retry
// and failover policy. Each attempt runs the protocol's one client loop over
// a replay of the shard buffer from the start; on the first attempt the
// buffer is still filling, so the replay degenerates into streaming through
// — pipelined with the client upload.
func (f *fanout) dispatchShard(ctx context.Context, idx int, backends []string, hedge bool) ([]homomorphic.Ciphertext, error) {
	s, buf := f.shards[idx], f.bufs[idx]
	hello := wire.Hello{
		Scheme:    f.hello.Scheme,
		PublicKey: f.hello.PublicKey,
		VectorLen: uint64(s.Rows()),
		ChunkLen:  f.hello.ChunkLen,
		RowOffset: uint64(s.Lo),
		Columns:   f.hello.Columns,
	}
	var partials []homomorphic.Ciphertext
	dispatchStart := time.Now()
	var uploadDur, replyDur time.Duration
	addr, st, err := f.a.client.DoStats(ctx, backends, func(sess *Session) error {
		attemptStart := time.Now()
		sess.Conn.SetTraceID(f.hello.TraceID)
		i := 0
		var err error
		partials, err = selectedsum.Upload(sess.Conn, hello, f.pk, func() (*wire.IndexChunk, error) {
			c, err := buf.next(i)
			i++
			if c == nil && err == nil {
				uploadDur = time.Since(attemptStart)
			}
			return c, err
		})
		replyDur = time.Since(attemptStart) - uploadDur
		return err
	})

	// One span per dispatch (a hedged shard gets two), annotated with the
	// retry/failover story. The durations come from the LAST attempt, the
	// one whose outcome this span reports. Shard spans run concurrently, so
	// they deliberately do NOT participate in the phase-sum invariant.
	attrs := map[string]string{
		"shard":    strconv.Itoa(idx),
		"attempts": strconv.Itoa(st.Attempts),
	}
	if addr != "" {
		attrs["backend"] = addr
	}
	if st.Retries > 0 {
		attrs["retries"] = strconv.Itoa(st.Retries)
	}
	if st.Failovers > 0 {
		attrs["failovers"] = strconv.Itoa(st.Failovers)
	}
	if hedge {
		attrs["hedge"] = "true"
	}
	if uploadDur > 0 {
		attrs["upload_ns"] = strconv.FormatInt(int64(uploadDur), 10)
	}
	if replyDur > 0 {
		attrs["reply_ns"] = strconv.FormatInt(int64(replyDur), 10)
	}
	if err != nil {
		attrs["error"] = err.Error()
	}
	f.tr.Observe("shard"+strconv.Itoa(idx), dispatchStart, time.Since(dispatchStart), attrs)
	return partials, err
}
