package selectedsum

import (
	"math/big"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// Allocation pins for the pooled path: a chunk's bytes are copied once per
// hop, into a buffer that is reused for the rest of the session.

// allocsPerRun is testing.AllocsPerRun that also reports the bytes allocated
// per call, the warm-up call included. The race detector's runtime allocates
// on its own account, so under it the test is skipped.
func allocsPerRun(t *testing.T, runs int, f func()) (mallocs float64, bytes uint64) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mallocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return mallocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs+1)
}

// replayPool hands out a few stored encryptions of each bit round-robin, the
// way a stock that never runs dry would: drawing costs nothing.
type replayPool struct {
	cts  [2][]homomorphic.Ciphertext
	next atomic.Uint64
}

func newReplayPool(t *testing.T, pk homomorphic.PublicKey) *replayPool {
	t.Helper()
	p := &replayPool{}
	for bit := range 2 {
		for range 4 {
			ct, err := pk.Encrypt(big.NewInt(int64(bit)))
			if err != nil {
				t.Fatal(err)
			}
			p.cts[bit] = append(p.cts[bit], ct)
		}
	}
	return p
}

func (p *replayPool) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	s := p.cts[bit]
	return s[p.next.Add(1)%uint64(len(s))], nil
}

func (p *replayPool) Remaining(bit uint) int { return len(p.cts[bit]) }

// TestQueryVectorAllocations: a pooled query allocates nothing per row — four
// times the rows in as many chunks cost the same number of allocations — and,
// in bytes, one chunk body plus a small fixed cost, not a body and an encoded
// copy of it per chunk.
func TestQueryVectorAllocations(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	width := pk.CiphertextSize()
	pool := newReplayPool(t, pk)
	zero, err := pk.Encrypt(new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	reply := zero.Bytes()

	// A server that answers every session on the one connection with the
	// same sum, reading each frame into its reused buffer: past the warm-up
	// it allocates nothing the client's count would include.
	a, b := net.Pipe()
	client, server := wire.NewConn(a), wire.NewConn(b)
	t.Cleanup(func() { client.Close() })
	go func() {
		defer server.Close()
		for {
			f, err := server.RecvReused()
			if err != nil {
				return
			}
			if f.Type == wire.MsgDone && server.Send(wire.MsgSum, reply) != nil {
				return
			}
		}
	}()

	const chunks, runs = 4, 20
	measure := func(rows int) (float64, uint64) {
		sel, err := database.GenerateSelection(rows, rows/2, database.PatternRandom, 5)
		if err != nil {
			t.Fatal(err)
		}
		src := SelectionSource(sk, sel, pool)
		return allocsPerRun(t, runs, func() {
			if _, err := QueryVector(client, sk, src, rows/chunks, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	const rows = 512
	small, _ := measure(rows)
	large, bytes := measure(4 * rows)
	if large > small {
		t.Errorf("%d rows allocate %.1f times a query, %d rows %.1f: the upload allocates per row", 4*rows, large, rows, small)
	}
	if body := uint64(rows * width); bytes > body+body/2 {
		t.Errorf("a query of %d chunks of %d-byte bodies allocates %d bytes, want at most one body and a fixed cost", chunks, body, bytes)
	}
}

// signalSink is the backend's sink, reporting every absorbed chunk.
type signalSink struct {
	sourceSink
	absorbed chan struct{}
}

func (s *signalSink) Absorb(chunk *wire.IndexChunk) error {
	err := s.sourceSink.Absorb(chunk)
	s.absorbed <- struct{}{}
	return err
}

// TestServeSinkChunkBuffer: past its first chunk, a backend session reads
// every chunk into the buffer that chunk filled, so a chunk costs it a few
// small allocations and never a body.
func TestServeSinkChunkBuffer(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	width := pk.CiphertextSize()
	// The fold holds chunks until it has a batch of 1 024 rows, so it opens
	// its buckets on the fourth chunk: warm chunks come before the runs.
	const rows, runs, warm = 256, 20, 4
	n := rows * (warm + runs + 1) // the warm chunks, AllocsPerRun's warm-up, the runs
	ones := make([]uint32, n)
	for i := range ones {
		ones[i] = 1 // one bucket for the whole fold: it allocates in the first chunk only
	}
	one, err := pk.Encrypt(big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 0, rows*width)
	for range rows {
		body = append(body, one.Bytes()...)
	}
	key, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	a, b := net.Pipe()
	client, server := wire.NewConn(a), wire.NewConn(b)
	t.Cleanup(func() { client.Close() })
	sink := &signalSink{sourceSink: sourceSink{src: database.New(ones)}, absorbed: make(chan struct{}, 1)}
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSink(server, sink, nil)
		server.Close()
	}()
	hello := wire.Hello{Version: wire.Version, Scheme: pk.SchemeName(), PublicKey: key, VectorLen: uint64(n), ChunkLen: rows}
	if err := client.Send(wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	chunk := &wire.IndexChunk{Ciphertexts: body, Width: width}
	send := func() {
		if err := client.SendChunk(chunk); err != nil {
			t.Fatal(err)
		}
		<-sink.absorbed
		chunk.Offset += rows
	}
	for range warm { // open the fold, size the receive buffer, fold a first batch
		send()
	}
	mallocs, bytes := allocsPerRun(t, runs, send)
	if err := client.Send(wire.MsgDone, nil); err != nil {
		t.Fatal(err)
	}
	f, err := client.Recv()
	if err != nil || f.Type != wire.MsgSum {
		t.Fatalf("reply: %v, %v", f.Type, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	ct, err := pk.ParseCiphertext(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := sk.Decrypt(ct); err != nil || sum.Int64() != int64(n) {
		t.Fatalf("sum %v (%v), want %d", sum, err, n)
	}
	if chunkBytes := uint64(len(body)); bytes > chunkBytes/8 {
		t.Errorf("a %d-byte chunk costs the session %d bytes (%.1f allocations): its payload was not read into the first chunk's buffer", chunkBytes, bytes, mallocs)
	}
	if mallocs > 4 {
		t.Errorf("a chunk costs %.1f allocations, want at most 4", mallocs)
	}
}
