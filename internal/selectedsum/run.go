package selectedsum

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/wire"
)

// Options selects a protocol variant, mirroring the paper's experiments:
//
//   - zero Options (plus a Link): the direct implementation of Figures 2/3;
//   - ChunkSize + Pipelined: the §3.2 batching optimization (Figure 4);
//   - Pool set: the §3.3 preprocessing optimization (Figures 5/6);
//   - all of them: the §3.4 combination (Figure 7).
type Options struct {
	// Link is the communication environment; communication time is derived
	// from exact wire byte counts through this model (see internal/netsim).
	Link netsim.Link

	// ChunkSize is the number of index encryptions per wire chunk.
	// 0 sends the whole vector as one chunk (the unbatched protocol).
	ChunkSize int

	// Pipelined overlaps client encryption, transfer, and server folding
	// chunk by chunk (§3.2). Requires ChunkSize > 0 to have any effect.
	Pipelined bool

	// Pool, when non-nil, supplies preprocessed index-bit encryptions
	// (§3.3); when nil the client encrypts online.
	Pool homomorphic.EncryptorPool

	// ServerWorkers splits the server's fold across this many goroutines
	// (0 or 1 = sequential). A software stand-in for the special-purpose
	// hardware the paper's future work proposes for the compute bottleneck.
	ServerWorkers int
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
	// Total is the end-to-end online time. For pipelined runs it is the
	// pipeline makespan plus the tail (finalize, response, decrypt), which
	// is less than the sum of the components — exactly the gain Figure 4
	// measures. For sequential runs, Total == Sum().
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

// Run executes one full protocol round in process: real cryptography and
// real measured compute, with communication time derived from the exact
// wire sizes through opts.Link. This is the engine behind every
// single-client experiment in the bench harness.
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

	enc := onlineEncryptor(sk, pk)
	if opts.Pool != nil {
		enc = Pooled{Pool: opts.Pool}
	}

	srv, err := NewShardSession(pk, table.Column(), uint64(n), 0)
	if err != nil {
		return nil, err
	}

	// The Hello carries the public key; its size is charged to the uplink.
	helloSize, err := helloWireSize(pk, uint64(n), uint32(chunkSize))
	if err != nil {
		return nil, err
	}

	res := &Result{BytesUp: int64(helloSize)}
	width := pk.CiphertextSize()

	var pipe *netsim.Pipeline
	if opts.Pipelined {
		pipe, err = netsim.NewPipeline(opts.Link)
		if err != nil {
			return nil, err
		}
		// The hello travels before the first chunk; model it as a chunk
		// with no compute on either end.
		if err := pipe.AddChunk(0, int64(helloSize), 0); err != nil {
			return nil, err
		}
	}

	var t Timings
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}

		encStart := time.Now()
		body, err := EncryptRange(enc, sel, lo, hi, width)
		if err != nil {
			return nil, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		payload := chunk.Encode()
		encDur := time.Since(encStart)
		t.ClientEncrypt += encDur

		wireBytes := int64(wire.FrameOverhead + len(payload))
		res.BytesUp += wireBytes
		res.Chunks++

		srvStart := time.Now()
		decoded, err := wire.DecodeIndexChunk(payload, width)
		if err != nil {
			return nil, err
		}
		if opts.ServerWorkers > 1 {
			err = srv.AbsorbParallel(decoded, opts.ServerWorkers)
		} else {
			err = srv.Absorb(decoded)
		}
		if err != nil {
			return nil, err
		}
		srvDur := time.Since(srvStart)
		t.ServerCompute += srvDur

		if pipe != nil {
			if err := pipe.AddChunk(encDur, wireBytes, srvDur); err != nil {
				return nil, err
			}
		}
	}

	finStart := time.Now()
	sumCt, err := srv.Finalize(blind)
	if err != nil {
		return nil, err
	}
	finalizeDur := time.Since(finStart)
	t.ServerCompute += finalizeDur

	respBytes := int64(wire.FrameOverhead + width)
	res.BytesDown = respBytes

	decStart := time.Now()
	sum, err := sk.Decrypt(sumCt)
	if err != nil {
		return nil, fmt.Errorf("selectedsum: decrypting sum: %w", err)
	}
	t.ClientDecrypt = time.Since(decStart)

	// Communication time from the link model: uplink stream + response leg.
	t.Communication = opts.Link.OneWayTime(res.BytesUp) + opts.Link.OneWayTime(respBytes)
	if pipe != nil {
		// Per-chunk encrypt/transfer/fold already overlap inside the
		// makespan; only the finalize, response leg, and decryption are
		// serial tail work.
		t.Total = pipe.Makespan() + finalizeDur + opts.Link.OneWayTime(respBytes) + t.ClientDecrypt
	} else {
		t.Total = t.Sum()
	}

	res.Sum = sum
	res.Timings = t
	return res, nil
}

// helloWireSize computes the exact wire size of the session Hello for the
// given key without sending it.
func helloWireSize(pk homomorphic.PublicKey, vectorLen uint64, chunkLen uint32) (int, error) {
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		return 0, fmt.Errorf("selectedsum: marshaling public key: %w", err)
	}
	h := wire.Hello{
		Version:   wire.Version,
		Scheme:    pk.SchemeName(),
		PublicKey: keyBytes,
		VectorLen: vectorLen,
		ChunkLen:  chunkLen,
	}
	return wire.FrameOverhead + len(h.Encode()), nil
}
