package selectedsum

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"strconv"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// This file is the transport-facing form of the protocol: an actual
// client/server exchange over a framed connection (TCP in the cmd tools,
// net.Pipe in tests and in Run, optionally wrapped in a netsim.Throttle).
// It is the only implementation of the exchange: Run in run.go measures the
// paper's figures by driving these two loops, not a copy of them.

// PhaseTimings records the server-side compute cost of one session, broken
// into the protocol's phases. Durations cover the server's own work only —
// waiting in Recv for the client is excluded — so the numbers stay
// meaningful for capacity planning even over slow or idle links. The server
// runtime feeds them into its per-phase histograms.
type PhaseTimings struct {
	// Hello is parsing the hello and building the session (key parse
	// included — for Paillier that is a couple of big.Int reads).
	Hello time.Duration
	// Absorb is the homomorphic folding of all index chunks — the
	// Π E(I_i)^{x_i} work that dominates Figure 1's server cost.
	Absorb time.Duration
	// Finalize is the streaming fold's bucket combine (paid once per
	// session), the final rerandomization, and encoding the response.
	Finalize time.Duration

	// Trace, when non-nil, receives the same phases as spans plus the
	// trace ID parsed from the Hello. The server runtime allocates it when
	// a trace recorder is configured; handlers record into it
	// unconditionally (all trace methods are nil-safe).
	Trace *trace.Trace

	// Settle, when non-nil, records the session's outcome. A handler calls
	// it just before it writes the session's last reply frame, with the
	// error that reply reports (nil before the sums), so that a peer
	// holding the reply already sees the session counted. The server
	// runtime sets it and settles whatever the handler left unsettled.
	Settle func(err error)
}

// settle reports the session's outcome through timings.Settle, if set.
func (t *PhaseTimings) settle(err error) {
	if t.Settle != nil {
		t.Settle(err)
	}
}

// Sink is the half of a server session that differs between deployments: a
// backend folds the client's chunks into encrypted sums (ServeSource's
// sink), the cluster aggregator splits them across its shards and combines
// the shards' partials. Everything on the wire — hello validation, CRC
// negotiation, chunk order, bounds and completeness, coded error reports,
// phase timings and spans — is ServeSink's and happens once.
type Sink interface {
	// Open starts the session on a hello that passed every check that needs
	// no data (frame type, version, key, column bits). It rejects a hello
	// its data cannot serve (row count, row offset) and sets the role and
	// any topology annotations on tr, which may be nil.
	Open(hello *wire.Hello, pk homomorphic.PublicKey, tr *trace.Trace) error
	// Absorb takes the next chunk: decoded, in order, and inside the rows
	// the hello announced. The chunk's bytes are valid until Absorb returns:
	// the next chunk is read into the same buffer, so a sink that keeps
	// ciphertexts past the call copies them.
	Absorb(chunk *wire.IndexChunk) error
	// Done reports that the vector is complete. A sink that forwarded the
	// chunks elsewhere waits here for the answers, so that the finish phase
	// times the session's own work only.
	Done() error
	// Finish returns one reply ciphertext per requested column, in
	// ascending column-bit order.
	Finish() ([]homomorphic.Ciphertext, error)
	// Abort releases whatever Open started when the session fails before
	// Finish has returned its sums.
	Abort()
	// Spans names the absorb and finish phases in the session's trace.
	Spans() (absorb, finish string)
}

// sourceSink is the backend's sink: a ServerSession over a snapshot of the
// source's columns.
type sourceSink struct {
	src     database.Source
	srv     *ServerSession
	oneLane bool // fold on the calling goroutine alone, as Run's one-CPU server does
}

// Open snapshots the requested columns and sizes the fold. A non-zero
// RowOffset scopes the session to a shard of a larger logical database: the
// source serves rows [RowOffset, RowOffset+VectorLen) and index chunks keep
// their global offsets. A multi-column session folds each uplink ciphertext
// — decoded and validated once — against every requested column and replies
// with one sum per column, in ascending bit order — the paper's variance
// trick (one uplink, several response ciphertexts) at the wire layer.
func (s *sourceSink) Open(hello *wire.Hello, pk homomorphic.PublicKey, tr *trace.Trace) error {
	cols := hello.EffectiveColumns()
	columns := make([]database.Column, 0, cols.Count())
	valueCol := s.src.Column()
	for _, col := range []struct {
		bit  wire.ColumnSet
		data database.Column
	}{
		{wire.ColValue, valueCol},
		{wire.ColSquare, s.src.SquareColumn()},
		{wire.ColOnes, database.Ones(valueCol.Len())},
	} {
		if cols.Has(col.bit) {
			columns = append(columns, col.data)
		}
	}
	tr.SetRole("server")
	var err error
	if s.srv, err = newServerSession(pk, columns, hello.VectorLen, hello.RowOffset); err == nil && s.oneLane {
		s.srv.lanes = 1
	}
	return err
}

func (s *sourceSink) Absorb(chunk *wire.IndexChunk) error       { return s.srv.Absorb(chunk) }
func (s *sourceSink) Done() error                               { return nil }
func (s *sourceSink) Finish() ([]homomorphic.Ciphertext, error) { return s.srv.finalize(nil) }
func (s *sourceSink) Abort()                                    {}
func (s *sourceSink) Spans() (absorb, finish string)            { return "absorb", "finalize" }

// ServeSource answers exactly one selected-sum session on conn over any
// database.Source — the in-memory Table or a disk-backed column store serve
// byte-identical sessions. The source's columns are snapshotted once at the
// hello, so a session folds against a consistent row prefix even while the
// store ingests concurrently. When timings is non-nil it is filled in as the
// session progresses, so a caller observing a failed session still sees the
// phases that completed.
func ServeSource(conn *wire.Conn, src database.Source, timings *PhaseTimings) error {
	if src == nil {
		return errors.New("selectedsum: nil source")
	}
	return ServeSink(conn, &sourceSink{src: src}, timings)
}

// ServeSink is the server side of the protocol, the only one: it reads the
// hello, hands the sink every index chunk until MsgDone, and replies with
// the sink's encrypted sums. Protocol violations are reported to the peer
// via a coded MsgError before the error is returned.
func ServeSink(conn *wire.Conn, sink Sink, timings *PhaseTimings) error {
	if timings == nil {
		timings = &PhaseTimings{}
	}
	abort := func() {} // nothing to release until the sink is open
	// fail reports a protocol error to the peer. The client may still be
	// streaming its index vector, and on an unbuffered transport
	// (net.Pipe) writing the error against an in-flight chunk would
	// deadlock — so the error is written concurrently while a drain
	// goroutine keeps consuming the client's frames. The drain goroutine
	// exits when the client stops sending (it blocks in Recv until the
	// connection closes, which the caller does after the session returns).
	// The report carries a code so the client's retry policy can react
	// without parsing prose.
	fail := func(err error) error {
		abort()
		timings.settle(err)
		code := wire.ErrorCodeFor(err)
		if code == wire.CodeNone {
			// Everything the serve loop rejects that is not a transport
			// fault is a deterministic protocol rejection.
			code = wire.CodeProtocol
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_ = conn.SendErrorCode(code, err.Error())
		}()
		go func() {
			for {
				f, rerr := conn.Recv()
				if rerr != nil || f.Type == wire.MsgDone || f.Type == wire.MsgError {
					return
				}
			}
		}()
		<-sent
		return err
	}

	f, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("selectedsum: reading hello: %w", err)
	}
	helloStart := time.Now()
	if f.Type != wire.MsgHello {
		return fail(fmt.Errorf("selectedsum: expected hello, got message type %#x", byte(f.Type)))
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return fail(err)
	}
	if hello.Version != wire.Version {
		return fail(fmt.Errorf("selectedsum: unsupported protocol version %d", hello.Version))
	}
	if hello.Flags&wire.HelloFlagFrameCRC != 0 {
		// The client asked for CRC-trailed frames; everything we send from
		// here on carries one. (Inbound frames are verified statelessly
		// whenever they carry a trailer, no switch needed.)
		conn.EnableCRC()
	}
	pk, err := homomorphic.ParsePublicKey(hello.Scheme, hello.PublicKey)
	if err != nil {
		return fail(err)
	}
	if !hello.Columns.Valid() {
		return fail(fmt.Errorf("selectedsum: unknown column bits in set %s", hello.Columns))
	}
	tr := timings.Trace
	if err := sink.Open(hello, pk, tr); err != nil {
		return fail(err)
	}
	abort = sink.Abort
	timings.Hello = time.Since(helloStart)

	// Trace recording: the ID arrives in the hello trailer (zero = no
	// trace requested, and the recorder drops ID-less traces). Only
	// timings, counts, and topology are recorded — never chunk contents,
	// the partial sum, or anything else under the client's key (§12).
	tr.SetID(trace.ID(hello.TraceID))
	tr.Annotate("scheme", hello.Scheme)
	tr.Annotate("rows", strconv.FormatUint(hello.VectorLen, 10))
	if hello.RowOffset != 0 {
		tr.Annotate("row_offset", strconv.FormatUint(hello.RowOffset, 10))
	}
	if hello.Columns != 0 {
		tr.Annotate("columns", hello.Columns.String())
	}
	tr.Observe("hello", helloStart, timings.Hello, nil)

	absorbSpan, finishSpan := sink.Spans()
	// Chunks keep global offsets, so the session covers [next, end).
	next, end := hello.RowOffset, hello.RowOffset+hello.VectorLen
	var absorbStart time.Time
	chunks := 0
	width := pk.CiphertextSize()
	for {
		// The chunk payload is the connection's reused buffer: the sink must
		// be done with the chunk's bytes when Absorb returns.
		f, err := conn.RecvReused()
		if err != nil {
			if errors.Is(err, wire.ErrFrameCorrupt) {
				return fail(err)
			}
			abort()
			return fmt.Errorf("selectedsum: reading chunk: %w", err)
		}
		// After CRC negotiation the client trails every frame; a plain
		// frame here means the type byte's flag bit (or the whole header)
		// was corrupted in flight, so classify it as corruption — a
		// retryable transport fault — not a protocol violation.
		if conn.CRCEnabled() && !f.CRC {
			return fail(fmt.Errorf("selectedsum: plain frame type %#x in a CRC session: %w", byte(f.Type), wire.ErrFrameCorrupt))
		}
		switch f.Type {
		case wire.MsgIndexChunk:
			chunkStart := time.Now()
			if chunks == 0 {
				absorbStart = chunkStart
			}
			chunks++
			chunk, err := wire.DecodeIndexChunk(f.Payload, width)
			if err != nil {
				return fail(err)
			}
			count := uint64(chunk.Count())
			switch {
			case chunk.Offset != next:
				return fail(fmt.Errorf("%w: got offset %d, want %d", ErrChunkOutOfOrder, chunk.Offset, next))
			case count > end-next:
				return fail(fmt.Errorf("%w: chunk [%d,%d) exceeds rows [%d,%d)", ErrVectorLength, next, next+count, hello.RowOffset, end))
			}
			if err := sink.Absorb(chunk); err != nil {
				return fail(err)
			}
			next += count
			timings.Absorb += time.Since(chunkStart)
		case wire.MsgDone:
			if next != end {
				return fail(fmt.Errorf("%w: folded %d of %d positions", ErrIncomplete, next-hello.RowOffset, hello.VectorLen))
			}
			if chunks > 0 {
				// One span for the whole phase: the duration is the compute
				// time only (waiting in Recv excluded, so a trace's phases
				// sum to at most the wall clock), the attrs carry the chunk
				// count — per-chunk spans would bloat a long upload.
				tr.Observe(absorbSpan, absorbStart, timings.Absorb,
					map[string]string{"chunks": strconv.Itoa(chunks)})
			}
			if err := sink.Done(); err != nil {
				return fail(err)
			}
			finStart := time.Now()
			sums, err := sink.Finish()
			if err != nil {
				return fail(err)
			}
			bodies := make([][]byte, len(sums))
			for i, sumCt := range sums {
				bodies[i] = sumCt.Bytes()
			}
			timings.Finalize = time.Since(finStart)
			tr.Observe(finishSpan, finStart, timings.Finalize, nil)
			timings.settle(nil)
			for _, body := range bodies {
				if err := conn.Send(wire.MsgSum, body); err != nil {
					return fmt.Errorf("selectedsum: sending sum: %w", err)
				}
			}
			return nil
		case wire.MsgError:
			abort()
			return wire.DecodeError(f.Payload)
		default:
			return fail(fmt.Errorf("selectedsum: unexpected message type %#x mid-session", byte(f.Type)))
		}
	}
}

// VectorSource yields the client's encrypted protocol vector entry by
// entry. The base protocol's 0/1 selection (SelectionSource) and its
// weighted form (PackedSelectionSource) both implement it, so the same
// transport client serves both.
type VectorSource interface {
	// Len is the vector length n (must match the server's table).
	Len() int
	// EncryptAt returns a fresh encryption of entry i. QueryVector calls it
	// from several goroutines at once, each on distinct rows, so it must be
	// safe for that, as an EncryptorPool is; whatever it shares across rows
	// (the selection, a weight, a key) it may only read.
	EncryptAt(i int) (homomorphic.Ciphertext, error)
}

// selectionSource adapts a 0/1 selection plus a bit encryptor.
type selectionSource struct {
	sel *database.Selection
	enc BitEncryptor
}

func (s selectionSource) Len() int { return s.sel.Len() }
func (s selectionSource) EncryptAt(i int) (homomorphic.Ciphertext, error) {
	return s.enc.EncryptBit(s.sel.Bit(i))
}

// SelectionSource is the base protocol's vector: the 0/1 selection,
// encrypted bit by bit — from pool when it is non-nil (the §3.3
// preprocessing), otherwise online by the key owner's EncryptSelf. A nil key
// yields a nil source, which QueryVector rejects.
func SelectionSource(sk homomorphic.PrivateKey, sel *database.Selection, pool homomorphic.EncryptorPool) VectorSource {
	if sk == nil {
		return nil
	}
	var enc BitEncryptor = OwnerOnline{SK: sk}
	if pool != nil {
		enc = Pooled{Pool: pool}
	}
	return selectionSource{sel: sel, enc: enc}
}

// packedSource is a selection whose selected rows carry an integer weight in
// place of the bit 1.
type packedSource struct {
	sel    *database.Selection
	weight func(row int) *big.Int
	// maxBits bounds a weight: anything wider may not be a plaintext.
	maxBits int
	sk      homomorphic.PrivateKey
	// pool, when non-nil, supplies the encryptions of 0 that AddPlain turns
	// into encryptions of the weights.
	pool homomorphic.EncryptorPool
}

func (s packedSource) Len() int { return s.sel.Len() }
func (s packedSource) EncryptAt(i int) (homomorphic.Ciphertext, error) {
	var w *big.Int
	if s.sel.Bit(i) == 1 {
		w = s.weight(i)
		if w == nil || w.Sign() < 0 || w.BitLen() > s.maxBits {
			return nil, fmt.Errorf("selectedsum: weight of row %d is outside the plaintext space", i)
		}
	}
	switch {
	case s.pool == nil:
		if w == nil {
			w = new(big.Int)
		}
		return s.sk.EncryptSelf(w)
	case w == nil:
		return s.pool.DrawBit(0)
	}
	zero, err := s.pool.DrawBit(0)
	if err != nil {
		return nil, err
	}
	return s.sk.PublicKey().AddPlain(zero, w)
}

// PackedSelectionSource is the weighted form of SelectionSource (the paper's
// §2: "integer weights in some larger range could be used"): selected row i
// uploads E(weight(i)), every other row E(0). A caller that gives each group
// of rows its own power of two reads one sum per group out of the single
// decrypted reply. With a pool every entry is a pooled encryption of 0, the
// selected ones shifted by one multiplication (AddPlain); without one every
// entry is encrypted online by sk's EncryptSelf. The server folds the vector
// like any other. weight is called from QueryVector's workers at once, and
// what it returns is only ever read, so it may hand out shared values. A nil
// key yields a nil source, which QueryVector rejects.
func PackedSelectionSource(sk homomorphic.PrivateKey, sel *database.Selection, weight func(row int) *big.Int, pool homomorphic.EncryptorPool) VectorSource {
	if sk == nil {
		return nil
	}
	return packedSource{
		sel:     sel,
		weight:  weight,
		maxBits: sk.PublicKey().PlaintextSpace().BitLen() - 1,
		sk:      sk,
		pool:    pool,
	}
}

// Query runs the client side of one session over conn: it streams the
// encrypted selection in chunks of chunkSize (0 = single chunk) and returns
// the decrypted sum. pool, when non-nil, supplies preprocessed bit
// encryptions.
func Query(conn *wire.Conn, sk homomorphic.PrivateKey, sel *database.Selection, chunkSize int, pool homomorphic.EncryptorPool) (*big.Int, error) {
	sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, pool), chunkSize, 0)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// QueryVector is the client call: it uploads an arbitrary encrypted vector
// once — the 0/1 selection, or the weighted-sum generalization of the
// paper's Section 2 ("integer weights in some larger range could be used");
// the server is oblivious to the difference, it folds whatever ciphertexts
// arrive — and the server folds it against every column in cols, replying
// with one sum per set bit in ascending bit order. The returned slice has
// that many decrypted sums in that same order. An empty (or value-only) set
// is the classic single-sum session, byte-identical on the wire to a
// pre-columns client.
func QueryVector(conn *wire.Conn, sk homomorphic.PrivateKey, src VectorSource, chunkSize int, cols wire.ColumnSet) ([]*big.Int, error) {
	if sk == nil {
		return nil, errors.New("selectedsum: nil private key")
	}
	if src == nil {
		return nil, errors.New("selectedsum: nil vector source")
	}
	if !cols.Valid() {
		return nil, fmt.Errorf("selectedsum: unknown column bits in set %s", cols)
	}
	pk := sk.PublicKey()
	n := src.Len()
	if chunkSize <= 0 || chunkSize > n {
		chunkSize = n
	}
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("selectedsum: marshaling public key: %w", err)
	}
	hello := wire.Hello{
		Scheme:    pk.SchemeName(),
		PublicKey: keyBytes,
		VectorLen: uint64(n),
		ChunkLen:  uint32(chunkSize),
		Columns:   cols,
	}
	// The vector is encrypted a chunk at a time, as the upload asks for it,
	// each chunk on every core (the paper's §3.5 "k parties each encrypt
	// n/k", inside one client): nothing is encrypted, or drawn from a pool,
	// ahead of the chunk that needs it, and no worker outlives the chunk.
	// Every chunk is encoded into the one body: Upload has written a chunk
	// before it asks for the next.
	width := pk.CiphertextSize()
	workers := runtime.GOMAXPROCS(0)
	lo := 0
	var body []byte
	cts, err := Upload(conn, hello, pk, func() (*wire.IndexChunk, error) {
		if lo >= n {
			return nil, nil
		}
		hi := min(lo+chunkSize, n)
		var err error
		body, err = encryptRows(body, src, lo, hi, width, workers)
		if err != nil {
			return nil, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		lo = hi
		return chunk, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([]*big.Int, len(cts))
	for i, ct := range cts {
		if sums[i], err = sk.Decrypt(ct); err != nil {
			return nil, fmt.Errorf("selectedsum: decrypting sum: %w", err)
		}
	}
	return sums, nil
}

// rejectGrace is how long an uploader whose write failed waits for the
// peer's explanation before it reports the bare write error. A server that
// turns a session away (busy, protocol error, idle timeout) sends its
// MsgError and then hangs up, and server.DefaultRejectTimeout bounds that
// send — so by the time the hang-up breaks a write here the explanation is
// normally already in flight, and a fraction of that bound is enough.
const rejectGrace = 200 * time.Millisecond

// Upload is the client side of the protocol, the only one: it sends the
// hello, streams the chunks next yields (a nil chunk ends the vector), sends
// MsgDone, and returns the server's reply ciphertexts, one per requested
// column. The caller describes the session in hello (scheme, key, rows, row
// offset, chunk length, columns); Upload sets what the connection decides
// (version, CRC flag, trace ID). Query encrypts the chunks as they are asked
// for; the cluster aggregator replays a shard's slice of its client's.
//
// The response is watched concurrently with the upload (the 100-continue
// pattern): a server that rejects the session early — busy, protocol error,
// idle timeout — sends MsgError while the client is still streaming, and
// the client must read it then, not after n chunks. Without the watcher the
// client only notices via a broken-pipe write error once the server hangs
// up, and the RST that follows can destroy the unread explanation.
func Upload(conn *wire.Conn, hello wire.Hello, pk homomorphic.PublicKey, next func() (*wire.IndexChunk, error)) ([]homomorphic.Ciphertext, error) {
	hello.Version = wire.Version
	if conn.CRCEnabled() {
		// Ask the server to trail its sums with a CRC too: without this the
		// reply direction is unprotected and a flipped ciphertext byte would
		// silently poison the result.
		hello.Flags |= wire.HelloFlagFrameCRC
	}
	// An armed (non-zero) conn trace ID travels in the hello trailer; the
	// zero default emits no trailer, so old servers still parse.
	hello.TraceID = conn.TraceID()
	if hello.Columns == wire.ColValue {
		// Value-only is the wire default; omit the trailer for interop.
		hello.Columns = 0
	}
	if err := conn.Send(wire.MsgHello, hello.Encode()); err != nil {
		return nil, fmt.Errorf("selectedsum: sending hello: %w", err)
	}
	// The only frames the server sends are sum ciphertexts or one bounded
	// error; cap the inbound declared length accordingly so a corrupted or
	// malicious length header cannot trigger a giant allocation.
	conn.SetMaxFrame(max(pk.CiphertextSize(), wire.MaxErrorPayload) + 64)

	// The server's first frame (the first sum, or an early error) is read
	// by a single background Recv; any further sums of a multi-column
	// session arrive strictly after it and are read inline below.
	type reply struct {
		f   wire.Frame
		err error
	}
	first := make(chan reply, 1)
	go func() {
		f, err := conn.Recv()
		first <- reply{f, err}
	}()
	// sum is the one verdict on a reply frame: a sum's payload, or the error
	// the frame carries or stands for.
	sum := func(r reply) ([]byte, error) {
		switch {
		case r.err != nil:
			return nil, fmt.Errorf("selectedsum: reading reply: %w", r.err)
		case r.f.Type == wire.MsgError:
			return nil, wire.DecodeError(r.f.Payload)
		case conn.CRCEnabled() && !r.f.CRC:
			// An impossible plain frame in a CRC session is a corrupted
			// header: retryable, not protocol-fatal.
			return nil, fmt.Errorf("selectedsum: plain frame type %#x in a CRC session: %w", byte(r.f.Type), wire.ErrFrameCorrupt)
		case r.f.Type != wire.MsgSum:
			return nil, fmt.Errorf("selectedsum: expected sum, got message type %#x", byte(r.f.Type))
		}
		return r.f.Payload, nil
	}
	// sent is the verdict on one frame write. A write that fails because the
	// server hung up prefers the server's explanation, if one arrives
	// promptly (it was usually sent well before the hang-up).
	sent := func(err error, what string) error {
		if err == nil {
			return nil
		}
		select {
		case r := <-first:
			if r.err == nil && r.f.Type == wire.MsgError {
				return wire.DecodeError(r.f.Payload)
			}
		case <-time.After(rejectGrace):
		}
		return fmt.Errorf("selectedsum: sending %s: %w", what, err)
	}

	for {
		chunk, err := next()
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		// Any frame before our MsgDone means the session is over (only
		// MsgError is expected, but anything else is fatal too).
		select {
		case r := <-first:
			if _, err := sum(r); err != nil {
				return nil, err
			}
			return nil, errors.New("selectedsum: server sent a sum mid-upload")
		default:
		}
		if err := sent(conn.SendChunk(chunk), "chunk"); err != nil {
			return nil, err
		}
	}
	if err := sent(conn.Send(wire.MsgDone, nil), "done"); err != nil {
		return nil, err
	}

	cts := make([]homomorphic.Ciphertext, hello.EffectiveColumns().Count())
	for i := range cts {
		var r reply
		if i == 0 {
			r = <-first
		} else {
			r.f, r.err = conn.Recv()
		}
		payload, err := sum(r)
		if err != nil {
			return nil, err
		}
		if cts[i], err = pk.ParseCiphertext(payload); err != nil {
			return nil, fmt.Errorf("selectedsum: parsing sum ciphertext: %w", err)
		}
	}
	return cts, nil
}
