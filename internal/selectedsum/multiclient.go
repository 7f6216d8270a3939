package selectedsum

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/mathx"
	"privstats/internal/netsim"
)

// Multi-client protocol (paper §3.5). k clients each handle a 1/k share of
// the index vector with their own key pairs. Learning the k partial sums
// would violate database privacy, so the server blinds partial sum P_i with
// a random R_i, where Σ R_i ≡ 0 (mod B) for a public combining modulus B.
// A ring pass then accumulates the blinded values; only the total — in
// which the blindings cancel — is ever visible in the clear.
//
// Blinding parameterization: the paper says R_i are random "mod M" without
// fixing M across the clients' independently chosen keys. This
// implementation uses an explicit public combining modulus
//
//	B = 2^(maxSumBits + SecurityBits)
//
// with R_i uniform in [0, B). Each client's view P_i + R_i is then within
// statistical distance 2^-SecurityBits of uniform, and P_i + R_i < 2B stays
// far below every client's plaintext modulus, so no unintended reduction
// occurs. The combining phase sums the V_i = P_i + R_i over the integers
// and reduces mod B once; Σ R_i ≡ 0 (mod B) makes the blinding vanish.

// MultiOptions configures a multi-client run.
type MultiOptions struct {
	// Link is the communication environment shared by all parties.
	Link netsim.Link
	// Clients is k, the number of cooperating clients (≥ 1).
	Clients int
	// ChunkSize configures each client's stream as in Options.
	ChunkSize int
	// Pools, when non-nil, holds one preprocessed encryption pool per
	// client (length must equal Clients); nil means online encryption.
	Pools []homomorphic.EncryptorPool
	// SecurityBits is the statistical blinding parameter σ (default 80).
	SecurityBits int
}

// MultiResult reports a multi-client run.
type MultiResult struct {
	// Sum is the recovered total.
	Sum *big.Int
	// PerClient holds each client's measured components for its shard.
	PerClient []Timings
	// Phase1 is the modelled wall-clock of the parallel phase: the slowest
	// client's end-to-end shard time (clients run concurrently; the
	// server's per-client folds are independent partial products).
	Phase1 time.Duration
	// Phase2 is the ring-combining phase: k-1 passes plus the broadcast.
	Phase2 time.Duration
	// Total is Phase1 + Phase2.
	Total time.Duration
	// BytesUp/BytesDown aggregate all clients' traffic with the server;
	// RingBytes is the combining-phase traffic among clients.
	BytesUp, BytesDown, RingBytes int64
}

// KeyGenerator produces one key pair per client; clients choose keys
// "independently and in parallel" in the paper, so each gets its own.
type KeyGenerator func() (homomorphic.PrivateKey, error)

// RunMulti executes the §3.5 protocol in process with real cryptography:
// k runs of the deployable engine (Run), one per shard under its client's
// own key, each session's sink finishing with the server's blind R_i
// (Σ R_i ≡ 0 mod B), then the ring combining phase.
func RunMulti(newKey KeyGenerator, table *database.Table, sel *database.Selection, opts MultiOptions) (*MultiResult, error) {
	k := opts.Clients
	if k < 1 {
		return nil, fmt.Errorf("selectedsum: need at least 1 client, got %d", k)
	}
	if sel.Len() != table.Len() {
		return nil, fmt.Errorf("%w: selection %d vs table %d", ErrVectorLength, sel.Len(), table.Len())
	}
	if opts.Pools != nil && len(opts.Pools) != k {
		return nil, fmt.Errorf("selectedsum: %d pools for %d clients", len(opts.Pools), k)
	}
	if err := opts.Link.Validate(); err != nil {
		return nil, err
	}
	sigma := opts.SecurityBits
	if sigma == 0 {
		sigma = 80
	}
	if sigma < 1 || sigma > 4096 {
		return nil, fmt.Errorf("selectedsum: security bits %d out of range", sigma)
	}
	n := table.Len()

	// Combining modulus B = 2^(bits(max possible sum) + σ).
	maxSum := new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(1<<32-1))
	blindMod := new(big.Int).Lsh(mathx.One, uint(maxSum.BitLen()+sigma))

	blinds, err := drawBlinds(k, blindMod)
	if err != nil {
		return nil, err
	}

	// Phase 1: each client processes its shard. Shards are the contiguous
	// ranges [i·n/k, (i+1)·n/k); the last shard absorbs the remainder when
	// k does not divide n.
	res := &MultiResult{PerClient: make([]Timings, k)}
	blinded := make([]*big.Int, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		shardTable, err := table.Shard(lo, hi)
		if err != nil {
			return nil, err
		}
		shardSel, err := sel.Slice(lo, hi)
		if err != nil {
			return nil, err
		}
		sk, err := newKey()
		if err != nil {
			return nil, fmt.Errorf("selectedsum: client %d key generation: %w", i, err)
		}
		// The blinded partial must fit the client's plaintext space
		// without wrapping, or the combining phase would be wrong.
		bound := new(big.Int).Lsh(blindMod, 1) // P_i + R_i < 2B
		if bound.Cmp(sk.PublicKey().PlaintextSpace()) >= 0 {
			return nil, fmt.Errorf("selectedsum: plaintext space too small for blinding modulus (need > %d bits)", bound.BitLen())
		}
		shardOpts := Options{Link: opts.Link, ChunkSize: opts.ChunkSize}
		if opts.Pools != nil {
			shardOpts.Pool = opts.Pools[i]
		}
		r, err := run(sk, shardTable, shardSel, shardOpts, blinds[i])
		if err != nil {
			return nil, fmt.Errorf("selectedsum: client %d shard run: %w", i, err)
		}
		blinded[i] = r.Sum
		res.PerClient[i] = r.Timings
		res.BytesUp += r.BytesUp
		res.BytesDown += r.BytesDown
		if r.Timings.Total > res.Phase1 {
			res.Phase1 = r.Timings.Total
		}
	}

	// Phase 2: ring combining. Client 1 starts S = V_1; each client adds
	// its V_i; client k reduces mod B and broadcasts. Messages carry a
	// value < 2kB, i.e. a few dozen bytes.
	phase2Start := time.Now()
	s := new(big.Int)
	for i := 0; i < k; i++ {
		s.Add(s, blinded[i])
	}
	s.Mod(s, blindMod)
	combineCompute := time.Since(phase2Start)

	msgBytes := int64((blindMod.BitLen()+7)/8 + 16) // value + framing
	// k-1 ring hops plus k-1 broadcast sends.
	res.RingBytes = msgBytes * int64(2*(k-1))
	res.Phase2 = combineCompute
	for i := 0; i < 2*(k-1); i++ {
		res.Phase2 += opts.Link.OneWayTime(msgBytes)
	}
	res.Total = res.Phase1 + res.Phase2
	res.Sum = s
	return res, nil
}

// drawBlinds samples the server's k blinds: R_1..R_{k-1} uniform in [0, B),
// R_k = −Σ R_i mod B.
func drawBlinds(k int, mod *big.Int) ([]*big.Int, error) {
	blinds := make([]*big.Int, k)
	total := new(big.Int)
	for i := range k - 1 {
		r, err := mathx.RandInt(rand.Reader, mod)
		if err != nil {
			return nil, fmt.Errorf("selectedsum: sampling blinding %d: %w", i, err)
		}
		blinds[i] = r
		total.Add(total, r)
	}
	blinds[k-1] = total.Neg(total).Mod(total, mod)
	return blinds, nil
}
