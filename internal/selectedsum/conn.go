package selectedsum

import (
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// This file is the transport-facing form of the protocol: an actual
// client/server exchange over a framed connection (TCP in the cmd tools,
// net.Pipe in tests, optionally wrapped in a netsim.Throttle). The
// in-process Run in run.go is the measurement engine; this is the deployable
// one. Both share ServerSession and BitEncryptor, so they cannot drift.

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
}

// Serve answers exactly one selected-sum session on conn: it reads the
// Hello, absorbs index chunks until MsgDone, and replies with the encrypted
// sum. Protocol violations are reported to the peer via MsgError before
// returning the error.
func Serve(conn *wire.Conn, table *database.Table) error {
	return ServeTimed(conn, table, nil)
}

// ServeTimed is Serve with per-phase timing capture: when timings is
// non-nil it is filled in as the session progresses, so a caller observing
// a failed session still sees the phases that completed.
func ServeTimed(conn *wire.Conn, table *database.Table, timings *PhaseTimings) error {
	if table == nil {
		return errors.New("selectedsum: nil table")
	}
	return ServeSource(conn, table, timings)
}

// ServeSource is ServeTimed over any database.Source — the in-memory Table
// or a disk-backed column store serve byte-identical sessions. The source's
// columns are snapshotted once at the hello, so a session folds against a
// consistent row prefix even while the store ingests concurrently.
func ServeSource(conn *wire.Conn, src database.Source, timings *PhaseTimings) error {
	if src == nil {
		return errors.New("selectedsum: nil source")
	}
	if timings == nil {
		timings = &PhaseTimings{}
	}
	// fail reports a protocol error to the peer. The client may still be
	// streaming its index vector, and on an unbuffered transport
	// (net.Pipe) writing the error against an in-flight chunk would
	// deadlock — so the error is written concurrently while a drain
	// goroutine keeps consuming the client's frames. The drain goroutine
	// exits when the client stops sending (it blocks in Recv until the
	// connection closes, which the caller does after Serve returns).
	fail := func(err error) error {
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
	cols := hello.EffectiveColumns()
	// A non-zero RowOffset scopes the session to a shard of a larger
	// logical database: this table serves rows [RowOffset,
	// RowOffset+VectorLen) and index chunks keep their global offsets. A
	// multi-column session folds each uplink ciphertext — decoded and
	// validated once — against every requested column and replies with one
	// sum per column, in ascending bit order — the paper's variance trick
	// (one uplink, several response ciphertexts) at the wire layer.
	columns := make([]database.Column, 0, cols.Count())
	valueCol := src.Column()
	for _, col := range []struct {
		bit  wire.ColumnSet
		data database.Column
	}{
		{wire.ColValue, valueCol},
		{wire.ColSquare, src.SquareColumn()},
		{wire.ColOnes, database.Ones(valueCol.Len())},
	} {
		if cols.Has(col.bit) {
			columns = append(columns, col.data)
		}
	}
	srv, err := newServerSession(pk, columns, hello.VectorLen, hello.RowOffset)
	if err != nil {
		return fail(err)
	}
	timings.Hello = time.Since(helloStart)

	// Trace recording: the ID arrives in the hello trailer (zero = no
	// trace requested, and the recorder drops ID-less traces). Only
	// timings, counts, and topology are recorded — never chunk contents,
	// the partial sum, or anything else under the client's key (§12).
	tr := timings.Trace
	tr.SetID(trace.ID(hello.TraceID))
	tr.SetRole("server")
	tr.Annotate("scheme", hello.Scheme)
	tr.Annotate("rows", strconv.FormatUint(hello.VectorLen, 10))
	if hello.RowOffset != 0 {
		tr.Annotate("row_offset", strconv.FormatUint(hello.RowOffset, 10))
	}
	if hello.Columns != 0 {
		tr.Annotate("columns", cols.String())
	}
	tr.Observe("hello", helloStart, timings.Hello, nil)

	var absorbStart time.Time
	chunks := 0
	width := pk.CiphertextSize()
	for {
		f, err := conn.Recv()
		if err != nil {
			if errors.Is(err, wire.ErrFrameCorrupt) {
				return fail(err)
			}
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
			if err := srv.Absorb(chunk); err != nil {
				return fail(err)
			}
			timings.Absorb += time.Since(chunkStart)
		case wire.MsgDone:
			if chunks > 0 {
				// One span for the whole fold: the duration is the compute
				// time only (waiting in Recv excluded), the attrs carry the
				// chunk count — per-chunk spans would bloat a long upload.
				tr.Observe("absorb", absorbStart, timings.Absorb,
					map[string]string{"chunks": strconv.Itoa(chunks)})
			}
			finStart := time.Now()
			sums, err := srv.finalize(nil)
			if err != nil {
				return fail(err)
			}
			bodies := make([][]byte, len(sums))
			for i, sumCt := range sums {
				bodies[i] = sumCt.Bytes()
			}
			timings.Finalize = time.Since(finStart)
			tr.Observe("finalize", finStart, timings.Finalize, nil)
			for _, body := range bodies {
				if err := conn.Send(wire.MsgSum, body); err != nil {
					return fmt.Errorf("selectedsum: sending sum: %w", err)
				}
			}
			return nil
		case wire.MsgError:
			return wire.DecodeError(f.Payload)
		default:
			return fail(fmt.Errorf("selectedsum: unexpected message type %#x mid-session", byte(f.Type)))
		}
	}
}

// VectorSource yields the client's encrypted protocol vector entry by
// entry. The 0/1 selection of the base protocol and the integer weight
// vectors of the SPFE extensions both implement it, so the same transport
// client serves both.
type VectorSource interface {
	// Len is the vector length n (must match the server's table).
	Len() int
	// EncryptAt returns a fresh encryption of entry i.
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

// Query runs the client side of one session over conn: it streams the
// encrypted selection in chunks of chunkSize (0 = single chunk) and returns
// the decrypted sum. pool, when non-nil, supplies preprocessed bit
// encryptions.
func Query(conn *wire.Conn, sk homomorphic.PrivateKey, sel *database.Selection, chunkSize int, pool homomorphic.EncryptorPool) (*big.Int, error) {
	if sk == nil {
		return nil, errors.New("selectedsum: nil private key")
	}
	enc := onlineEncryptor(sk, sk.PublicKey())
	if pool != nil {
		enc = Pooled{Pool: pool}
	}
	return QueryVector(conn, sk, selectionSource{sel: sel, enc: enc}, chunkSize)
}

// QueryColumns runs one multi-column session: the encrypted selection is
// uploaded once and the server folds it against every column in cols,
// replying with one sum per set bit in ascending bit order. The returned
// slice has cols.Count() decrypted sums in that same order. An empty (or
// value-only) set degrades to the classic single-sum session, byte-identical
// on the wire to a pre-columns client.
func QueryColumns(conn *wire.Conn, sk homomorphic.PrivateKey, sel *database.Selection, chunkSize int, pool homomorphic.EncryptorPool, cols wire.ColumnSet) ([]*big.Int, error) {
	if sk == nil {
		return nil, errors.New("selectedsum: nil private key")
	}
	if !cols.Valid() {
		return nil, fmt.Errorf("selectedsum: unknown column bits in set %s", cols)
	}
	enc := onlineEncryptor(sk, sk.PublicKey())
	if pool != nil {
		enc = Pooled{Pool: pool}
	}
	return queryVector(conn, sk, selectionSource{sel: sel, enc: enc}, chunkSize, cols)
}

// QueryVector is Query over an arbitrary encrypted-vector source — the
// weighted-sum generalization of the paper's Section 2 ("integer weights in
// some larger range could be used"). The server is oblivious to the
// difference: it folds whatever ciphertexts arrive.
//
// The response is watched concurrently with the upload (the 100-continue
// pattern): a server that rejects the session early — busy, protocol error,
// idle timeout — sends MsgError while the client is still streaming, and
// the client must read it then, not after n chunks. Without the watcher the
// client only notices via a broken-pipe write error once the server hangs
// up, and the RST that follows can destroy the unread explanation.
func QueryVector(conn *wire.Conn, sk homomorphic.PrivateKey, src VectorSource, chunkSize int) (*big.Int, error) {
	sums, err := queryVector(conn, sk, src, chunkSize, 0)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// queryVector is the shared client loop: upload once, collect one decrypted
// sum per requested column (cols == 0 means the classic value-only session,
// encoded without the columns trailer so old servers still parse).
func queryVector(conn *wire.Conn, sk homomorphic.PrivateKey, src VectorSource, chunkSize int, cols wire.ColumnSet) ([]*big.Int, error) {
	if sk == nil {
		return nil, errors.New("selectedsum: nil private key")
	}
	if src == nil {
		return nil, errors.New("selectedsum: nil vector source")
	}
	if cols == wire.ColValue {
		// Value-only is the wire default; omit the trailer for interop.
		cols = 0
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
		Version:   wire.Version,
		Scheme:    pk.SchemeName(),
		PublicKey: keyBytes,
		VectorLen: uint64(n),
		ChunkLen:  uint32(chunkSize),
		// An armed (non-zero) conn trace ID travels in the hello trailer;
		// the zero default emits no trailer, so old servers still parse.
		TraceID: conn.TraceID(),
		Columns: cols,
	}
	if conn.CRCEnabled() {
		hello.Flags |= wire.HelloFlagFrameCRC
	}
	if err := conn.Send(wire.MsgHello, hello.Encode()); err != nil {
		return nil, fmt.Errorf("selectedsum: sending hello: %w", err)
	}
	// The only frames the server sends are one sum ciphertext or one
	// bounded error; cap the inbound declared length accordingly so a
	// corrupted or malicious length header cannot trigger a giant
	// allocation.
	limit := pk.CiphertextSize()
	if limit < wire.MaxErrorPayload {
		limit = wire.MaxErrorPayload
	}
	conn.SetMaxFrame(limit + 64)

	// The server's first frame (the first sum, or an early error) is read
	// by a single background Recv; any further sums of a multi-column
	// session arrive strictly after it and are read inline below.
	type response struct {
		f   wire.Frame
		err error
	}
	respc := make(chan response, 1)
	go func() {
		f, err := conn.Recv()
		respc <- response{f, err}
	}()
	// early drains an already-arrived server frame mid-upload; any frame
	// before our MsgDone means the session is over (only MsgError is
	// expected, but anything else is fatal too).
	early := func() error {
		select {
		case r := <-respc:
			switch {
			case r.err != nil:
				return fmt.Errorf("selectedsum: reading early reply: %w", r.err)
			case r.f.Type == wire.MsgError:
				return wire.DecodeError(r.f.Payload)
			case conn.CRCEnabled() && !r.f.CRC:
				return fmt.Errorf("selectedsum: plain frame type %#x in a CRC session: %w", byte(r.f.Type), wire.ErrFrameCorrupt)
			default:
				return fmt.Errorf("selectedsum: unexpected message type %#x mid-upload", byte(r.f.Type))
			}
		default:
			return nil
		}
	}

	width := pk.CiphertextSize()
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		body := make([]byte, 0, (hi-lo)*width)
		for i := lo; i < hi; i++ {
			ct, err := src.EncryptAt(i)
			if err != nil {
				return nil, fmt.Errorf("selectedsum: encrypting entry %d: %w", i, err)
			}
			body, err = appendCiphertext(body, ct, width)
			if err != nil {
				return nil, err
			}
		}
		if err := early(); err != nil {
			return nil, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		if err := conn.Send(wire.MsgIndexChunk, chunk.Encode()); err != nil {
			// The write failed because the server hung up; prefer its
			// explanation if one arrives promptly (it was usually sent
			// well before the hangup).
			select {
			case r := <-respc:
				if r.err == nil && r.f.Type == wire.MsgError {
					return nil, wire.DecodeError(r.f.Payload)
				}
			case <-time.After(200 * time.Millisecond):
			}
			return nil, fmt.Errorf("selectedsum: sending chunk at %d: %w", lo, err)
		}
	}
	if err := conn.Send(wire.MsgDone, nil); err != nil {
		select {
		case r := <-respc:
			if r.err == nil && r.f.Type == wire.MsgError {
				return nil, wire.DecodeError(r.f.Payload)
			}
		case <-time.After(200 * time.Millisecond):
		}
		return nil, fmt.Errorf("selectedsum: sending done: %w", err)
	}

	want := cols.Count()
	sums := make([]*big.Int, 0, want)
	for i := 0; i < want; i++ {
		var r response
		if i == 0 {
			r = <-respc
		} else {
			r.f, r.err = conn.Recv()
		}
		if r.err != nil {
			return nil, fmt.Errorf("selectedsum: reading sum %d/%d: %w", i+1, want, r.err)
		}
		switch r.f.Type {
		case wire.MsgSum:
			if conn.CRCEnabled() && !r.f.CRC {
				return nil, fmt.Errorf("selectedsum: plain frame type %#x in a CRC session: %w", byte(r.f.Type), wire.ErrFrameCorrupt)
			}
			ct, err := pk.ParseCiphertext(r.f.Payload)
			if err != nil {
				return nil, fmt.Errorf("selectedsum: parsing sum ciphertext: %w", err)
			}
			sum, err := sk.Decrypt(ct)
			if err != nil {
				return nil, fmt.Errorf("selectedsum: decrypting sum: %w", err)
			}
			sums = append(sums, sum)
		case wire.MsgError:
			return nil, wire.DecodeError(r.f.Payload)
		default:
			if conn.CRCEnabled() && !r.f.CRC {
				// Impossible plain type in a CRC session: a corrupted header,
				// classified retryable rather than protocol-fatal.
				return nil, fmt.Errorf("selectedsum: plain frame type %#x in a CRC session: %w", byte(r.f.Type), wire.ErrFrameCorrupt)
			}
			return nil, fmt.Errorf("selectedsum: expected sum, got message type %#x", byte(r.f.Type))
		}
	}
	return sums, nil
}
