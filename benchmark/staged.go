package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"

	"privstats/internal/colstore"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// span is one timed call into a layer. Spans of one op share its number;
// Parent is the ID of the span that caused this one, 0 for an op's root.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Slowdown, on an op's root span, is how much slower than the reference
	// host the bursts around the op ran; start and end are as the clock read
	// them.
	Slowdown float64 `json:"host_slowdown,omitempty"`
}

// spanLog keeps spans in memory until the pass ends. The staged replay is one
// goroutine, so the log is not locked.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(op, parent int, name string) int {
	l.spans = append(l.spans, span{Op: op, ID: len(l.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(l.epoch))})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].EndNs = int64(time.Since(l.epoch)) }

// selfTimes returns, per op, each span name's self time, scaled by the op's
// slowdown: the span's duration minus the part of it its child spans cover
// (children of one span do not overlap here, so that part is the sum of their
// durations).
func (l *spanLog) selfTimes() map[int]map[string]time.Duration {
	covered := make(map[int]int64)
	slow := make(map[int]float64)
	for _, s := range l.spans {
		covered[s.Parent] += s.EndNs - s.StartNs
		if s.Parent == 0 {
			slow[s.Op] = s.Slowdown
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range l.spans {
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]time.Duration)
		}
		out[s.Op][s.Name] += time.Duration(float64(s.EndNs-s.StartNs-covered[s.ID]) / slow[s.Op])
	}
	return out
}

func (l *spanLog) writeFile(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The staged replay's span names: the layer function each one times.
const (
	spanOp       = "op"
	spanEncrypt  = "selectedsum.EncryptRange"
	spanEncode   = "wire.Encode"
	spanFrame    = "wire.Conn.Send+Recv"
	spanDecode   = "wire.Decode"
	spanHello    = "selectedsum.NewShardSession"
	spanAbsorb   = "selectedsum.ServerSession.Absorb"
	spanFinalize = "selectedsum.ServerSession.Finalize"
	spanDecrypt  = "paillier.SchemeKey.Decrypt"
)

// loopbackPair returns the two ends of one loopback TCP connection, framed.
func loopbackPair() (a, b *wire.Conn, closeBoth func(), err error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	ca, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, nil, err
	}
	cb := <-accepted
	if cb == nil {
		ca.Close()
		return nil, nil, nil, fmt.Errorf("loopback accept failed")
	}
	return wire.NewConn(ca), wire.NewConn(cb), func() { ca.Close(); cb.Close() }, nil
}

// transfer sends one frame on from and receives it on to. The receive runs
// beside the send so a frame larger than the socket buffers cannot stall.
func transfer(from, to *wire.Conn, t wire.MsgType, payload []byte) (wire.Frame, error) {
	type recv struct {
		f   wire.Frame
		err error
	}
	got := make(chan recv, 1)
	go func() {
		f, err := to.Recv()
		got <- recv{f, err}
	}()
	sendErr := from.Send(t, payload)
	r := <-got
	if sendErr != nil {
		return wire.Frame{}, sendErr
	}
	return r.f, r.err
}

// probeEnv is what the staged replay and the micro-probes work on: the
// workload's key, table, storage kind, chunk size and encryptor, without the
// live deployment.
type probeEnv struct {
	w     workload
	sk    *paillier.PrivateKey
	key   homomorphic.PrivateKey
	table *database.Table
	slab  *slab           // nil for a workload that encrypts online
	store *colstore.Store // the whole table as a column store
	src   database.Source // table, or store for colstore workloads
	enc   selectedsum.BitEncryptor
	chunk int // w.chunk with 0 resolved to the whole vector
}

// stagedReplay runs private queries itself, stage by stage through the
// layers' public functions in the order a live session calls them, one span
// per call: whole rounds of the workload's queries until budget is spent (at
// least two queries). It returns the number of queries run.
func stagedReplay(env *probeEnv, seed int64, budget time.Duration, log *spanLog) (int, error) {
	client, server, closeBoth, err := loopbackPair()
	if err != nil {
		return 0, err
	}
	defer closeBoth()
	if env.w.jobs {
		client.EnableCRC()
		server.EnableCRC()
	}
	deadline := time.Now().Add(budget)
	ops := 0
	before, _ := burst()
	for ops < 2 || time.Now().Before(deadline) {
		for _, cols := range env.w.queries {
			ops++
			root, err := stagedOp(env, cols, seed, ops, client, server, log)
			if err != nil {
				return 0, fmt.Errorf("staged op %d: %w", ops, err)
			}
			after, _ := burst()
			log.spans[root-1].Slowdown = slowdown(before, after)
			before = after
		}
	}
	return ops, nil
}

// encodeHello is the hello a client of the workload sends for a query folding
// cols.
func encodeHello(env *probeEnv, cols wire.ColumnSet) ([]byte, error) {
	pk := env.key.PublicKey()
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	h := wire.Hello{Version: wire.Version, Scheme: pk.SchemeName(), PublicKey: keyBytes,
		VectorLen: uint64(env.table.Len()), ChunkLen: uint32(env.chunk), Columns: cols}
	if h.Columns == wire.ColValue {
		h.Columns = 0 // the wire default, sent without a trailer
	}
	if env.w.jobs {
		h.Flags |= wire.HelloFlagFrameCRC
	}
	return h.Encode(), nil
}

// stagedOp is one private query of the replay folding cols, op numbering its
// spans. It returns the ID of the op's root span.
func stagedOp(env *probeEnv, cols wire.ColumnSet, seed int64, op int, client, server *wire.Conn, log *spanLog) (int, error) {
	n := env.table.Len()
	sel, err := database.GenerateSelection(n, n*selectedPct/100, database.PatternRandom, seed+int64(op))
	if err != nil {
		return 0, err
	}
	pk := env.key.PublicKey()
	width := pk.CiphertextSize()
	stage := func(parent int, name string, fn func() error) error {
		id := log.begin(op, parent, name)
		defer log.end(id)
		return fn()
	}
	root := log.begin(op, 0, spanOp)
	defer log.end(root)

	// Hello: the client's key crosses the wire and the server builds one fold
	// session per requested column from the parsed copy.
	var sessions []*selectedsum.ServerSession
	var hello []byte
	if err := stage(root, spanEncode, func() (err error) {
		hello, err = encodeHello(env, cols)
		return err
	}); err != nil {
		return 0, err
	}
	var frame wire.Frame
	if err := stage(root, spanFrame, func() (err error) {
		frame, err = transfer(client, server, wire.MsgHello, hello)
		return err
	}); err != nil {
		return 0, err
	}
	if err := stage(root, spanHello, func() error {
		h, err := wire.DecodeHello(frame.Payload)
		if err != nil {
			return err
		}
		serverPK, err := homomorphic.ParsePublicKey(h.Scheme, h.PublicKey)
		if err != nil {
			return err
		}
		for _, col := range []struct {
			bit  wire.ColumnSet
			data database.Column
		}{{wire.ColValue, env.src.Column()}, {wire.ColSquare, env.src.SquareColumn()}} {
			if !cols.Has(col.bit) {
				continue
			}
			s, err := selectedsum.NewShardSession(serverPK, col.data, h.VectorLen, 0)
			if err != nil {
				return err
			}
			sessions = append(sessions, s)
		}
		return nil
	}); err != nil {
		return 0, err
	}

	for lo := 0; lo < n; lo += env.chunk {
		hi := min(lo+env.chunk, n)
		var body, payload []byte
		if err := stage(root, spanEncrypt, func() (err error) {
			body, err = selectedsum.EncryptRange(env.enc, sel, lo, hi, width)
			return err
		}); err != nil {
			return 0, err
		}
		_ = stage(root, spanEncode, func() error {
			payload = (&wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}).Encode()
			return nil
		})
		if err := stage(root, spanFrame, func() (err error) {
			frame, err = transfer(client, server, wire.MsgIndexChunk, payload)
			return err
		}); err != nil {
			return 0, err
		}
		var chunk *wire.IndexChunk
		if err := stage(root, spanDecode, func() (err error) {
			chunk, err = wire.DecodeIndexChunk(frame.Payload, width)
			return err
		}); err != nil {
			return 0, err
		}
		if err := stage(root, spanAbsorb, func() error {
			for _, s := range sessions {
				if err := s.Absorb(chunk); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}

	replies := make([][]byte, len(sessions))
	if err := stage(root, spanFinalize, func() error {
		for i, s := range sessions {
			ct, err := s.Finalize(nil)
			if err != nil {
				return err
			}
			replies[i] = ct.Bytes()
		}
		return nil
	}); err != nil {
		return 0, err
	}
	for i := range replies {
		if err := stage(root, spanFrame, func() (err error) {
			frame, err = transfer(server, client, wire.MsgSum, replies[i])
			return err
		}); err != nil {
			return 0, err
		}
		replies[i] = frame.Payload
	}
	sums := make([]*big.Int, len(replies))
	if err := stage(root, spanDecrypt, func() error {
		for i, reply := range replies {
			ct, err := pk.ParseCiphertext(reply)
			if err != nil {
				return err
			}
			if sums[i], err = env.key.Decrypt(ct); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}

	want, err := env.table.SelectedSum(sel)
	if err != nil {
		return 0, err
	}
	if sums[0].Cmp(want) != 0 {
		return 0, fmt.Errorf("wrong sum: got %v, oracle %v", sums[0], want)
	}
	if len(sums) > 1 {
		wantSq, err := env.table.SelectedSumOfSquares(sel)
		if err != nil {
			return 0, err
		}
		if sums[1].Cmp(wantSq) != 0 {
			return 0, fmt.Errorf("wrong sum of squares: got %v, oracle %v", sums[1], wantSq)
		}
	}
	return root, nil
}

// stageMeans reduces the replay's spans to the mean, over its queries, of
// each span name's self time per query.
func stageMeans(log *spanLog) map[string]time.Duration {
	perOp := log.selfTimes()
	out := make(map[string]time.Duration)
	for _, byName := range perOp {
		for name, d := range byName {
			out[name] += d
		}
	}
	for name := range out {
		out[name] /= time.Duration(len(perOp))
	}
	return out
}
