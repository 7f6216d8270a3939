package selectedsum

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/wire"
)

// Options selects a protocol variant, mirroring the paper's experiments:
//
//   - zero Options (plus a Link): the direct implementation of Figures 2/3;
//   - ChunkSize: the §3.2 batching optimization (Figure 4);
//   - Pool set: the §3.3 preprocessing optimization (Figures 5/6);
//   - both: the §3.4 combination (Figure 7).
type Options struct {
	// Link is the communication environment; communication time is derived
	// from exact wire byte counts through this model (see internal/netsim).
	Link netsim.Link

	// ChunkSize is the number of index encryptions per wire chunk. 0 sends
	// the whole vector as one chunk, and the run's components add up end to
	// end (the unbatched protocol); a positive size overlaps client
	// encryption, transfer, and server folding chunk by chunk (§3.2).
	ChunkSize int

	// Pool, when non-nil, supplies preprocessed index-bit encryptions
	// (§3.3); when nil the client encrypts online.
	Pool homomorphic.EncryptorPool
}

// Timings are the four runtime components the paper's figures break out.
type Timings struct {
	// ClientEncrypt is the client's online time producing the encrypted
	// index vector (for the preprocessed variant: the time to read stored
	// ciphertexts and serialize them).
	ClientEncrypt time.Duration
	// ServerCompute is the server's homomorphic folding time, including
	// the final rerandomization.
	ServerCompute time.Duration
	// Communication is the link-model time for all protocol bytes.
	Communication time.Duration
	// ClientDecrypt is the single final decryption.
	ClientDecrypt time.Duration
	// Total is the end-to-end online time. For chunked runs it is the
	// pipeline makespan plus the reply and its decryption, which is less
	// than the sum of the components — exactly the gain Figure 4 measures.
	// For unchunked runs, Total == Sum().
	Total time.Duration
}

// Sum returns the sequential total of the four components.
func (t Timings) Sum() time.Duration {
	return t.ClientEncrypt + t.ServerCompute + t.Communication + t.ClientDecrypt
}

// Result is the outcome of one protocol run.
type Result struct {
	// Sum is the decrypted selected sum.
	Sum *big.Int
	// Timings are the measured/modelled runtime components.
	Timings Timings
	// BytesUp and BytesDown are the exact wire byte counts client→server
	// and server→client.
	BytesUp, BytesDown int64
	// Chunks is the number of index chunks sent.
	Chunks int
}

// Run executes one full protocol round in process on the deployable engine:
// Upload against ServeSink over net.Pipe, with real cryptography and
// measured compute, and communication time derived from the bytes the
// client's connection metered, through opts.Link. This is the engine behind
// every single-client experiment in the bench harness.
func Run(sk homomorphic.PrivateKey, table *database.Table, sel *database.Selection, opts Options) (*Result, error) {
	return run(sk, table, sel, opts, nil)
}

// run is Run plus an optional server-side blinding value, which the
// multi-client protocol adds at finalize (§3.5). The decrypted Result.Sum
// is then the blinded partial sum P_i + R_i.
func run(sk homomorphic.PrivateKey, table *database.Table, sel *database.Selection, opts Options, blind *big.Int) (*Result, error) {
	if sk == nil {
		return nil, errors.New("selectedsum: nil private key")
	}
	if err := opts.Link.Validate(); err != nil {
		return nil, err
	}
	if sel.Len() != table.Len() {
		return nil, fmt.Errorf("%w: selection %d vs table %d", ErrVectorLength, sel.Len(), table.Len())
	}
	pk := sk.PublicKey()
	n := table.Len()
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 || chunkSize > n {
		chunkSize = n
	}
	var enc BitEncryptor = OwnerOnline{SK: sk}
	if opts.Pool != nil {
		enc = Pooled{Pool: opts.Pool}
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
	}

	var clock stopwatch
	sink := &clockedSink{sourceSink: sourceSink{src: table, oneLane: true}, clock: &clock, blind: blind}
	a, b := net.Pipe()
	client, server := wire.NewConn(a), wire.NewConn(b)
	served := make(chan error, 1)
	go func() {
		served <- ServeSink(server, sink, nil)
		server.Close()
	}()

	// The per-chunk records come from outside the engine: the encryption is
	// timed inside the chunk source, the bytes are the client meter's count
	// each time the source is asked for the next chunk.
	width := pk.CiphertextSize()
	var encs []time.Duration
	var sent []int64
	lo := 0
	cts, err := Upload(client, hello, pk, func() (*wire.IndexChunk, error) {
		out, _, _, _ := client.Meter.Snapshot()
		sent = append(sent, out)
		if lo >= n {
			return nil, nil
		}
		hi := min(lo+chunkSize, n)
		var body []byte
		var err error
		encs = append(encs, clock.time(func() { body, err = EncryptRange(enc, sel, lo, hi, width) }))
		if err != nil {
			return nil, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		lo = hi
		return chunk, nil
	})
	client.Close()
	if srvErr := <-served; err == nil && srvErr != nil {
		err = srvErr
	}
	if err != nil {
		return nil, err
	}

	decStart := time.Now()
	sum, err := sk.Decrypt(cts[0])
	if err != nil {
		return nil, fmt.Errorf("selectedsum: decrypting sum: %w", err)
	}
	up, down, _, _ := client.Meter.Snapshot()
	t := Timings{
		ClientDecrypt: time.Since(decStart),
		Communication: opts.Link.OneWayTime(up) + opts.Link.OneWayTime(down),
	}
	for _, d := range encs {
		t.ClientEncrypt += d
	}
	for _, d := range sink.work {
		t.ServerCompute += d
	}
	t.Total = t.Sum()
	if opts.ChunkSize > 0 {
		if t.Total, err = pipelined(opts.Link, append(sent, up), encs, sink.work, down, t.ClientDecrypt); err != nil {
			return nil, err
		}
	}
	return &Result{Sum: sum, Timings: t, BytesUp: up, BytesDown: down, Chunks: len(encs)}, nil
}

// pipelined lays a chunked run on the link's clock (§3.2). Every uplink
// frame is a netsim.Pipeline stage: the hello with no compute on either
// end, chunk i with its encryption and its fold, and the done frame with
// the server's finalize. marks[j] is the uplink byte count once frame j is
// sent, enc has one record per chunk, srv one per chunk plus the finalize.
func pipelined(link netsim.Link, marks []int64, enc, srv []time.Duration, replyBytes int64, decrypt time.Duration) (time.Duration, error) {
	pipe, err := netsim.NewPipeline(link)
	if err != nil {
		return 0, err
	}
	prev := int64(0)
	for j, mark := range marks {
		var e, s time.Duration
		if j > 0 {
			s = srv[j-1]
		}
		if j > 0 && j <= len(enc) {
			e = enc[j-1]
		}
		if err := pipe.AddChunk(e, mark-prev, s); err != nil {
			return 0, err
		}
		prev = mark
	}
	return pipe.Finish(replyBytes, decrypt), nil
}

// stopwatch times sections of work that must not overlap. Run's client and
// server share one process, so a chunk's encryption and the previous
// chunk's fold would otherwise contend for the same cores; one lock keeps
// each measured section to its own work, as on the paper's two hosts.
type stopwatch struct{ mu sync.Mutex }

func (w *stopwatch) time(f func()) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	f()
	return time.Since(start)
}

// clockedSink is the backend's sink with Run's clock on it: it records the
// server's compute per uplink frame — each chunk's fold, then the finalize —
// and finishes with the multi-client blind when there is one. Its session
// folds on one lane, so the paper's figures time a one-CPU server.
type clockedSink struct {
	sourceSink
	clock *stopwatch
	blind *big.Int
	work  []time.Duration
}

func (s *clockedSink) Absorb(chunk *wire.IndexChunk) (err error) {
	s.work = append(s.work, s.clock.time(func() { err = s.srv.Absorb(chunk) }))
	return err
}

func (s *clockedSink) Finish() (sums []homomorphic.Ciphertext, err error) {
	s.work = append(s.work, s.clock.time(func() { sums, err = s.srv.finalize(s.blind) }))
	return sums, err
}
