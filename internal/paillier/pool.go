package paillier

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"sync"

	"math/big"

	"privstats/internal/mathx"
)

// fillChunk is how many items a Fill generates before publishing them under
// the lock. Small enough that concurrent Draws see stock early in a long
// refill and a cancelled context stops promptly; large enough that the lock
// traffic is noise next to the modular exponentiations.
const fillChunk = 32

// This file implements the paper's Section 3.3 preprocessing optimization:
// "encrypt a large number of 0s and a large number of 1s [offline] to use
// later", so that the client's online work is only retrieving stored
// encryptions. Two layers are provided:
//
//   - RandomizerPool precomputes the expensive factor r^N mod N², turning a
//     later encryption of any message into two modular multiplications.
//   - BitStore precomputes whole ciphertexts of the bits 0 and 1, exactly as
//     the paper describes; drawing from it is a slice pop.

// RandomizerPool holds precomputed Paillier randomizers r^N mod N².
// It is safe for concurrent use.
type RandomizerPool struct {
	pk *PublicKey
	// sk, when non-nil, marks an owner-constructed pool: fills and online
	// fallbacks generate randomizers through the CRT fast path instead of
	// the public-key r^N exponentiation. Stock-daemon pools (public key
	// only) leave it nil.
	sk *PrivateKey
	// rnd overrides the randomness source (tests inject failing readers);
	// nil means crypto/rand.Reader.
	rnd io.Reader

	mu    sync.Mutex
	stock []*big.Int

	// onlineFallbacks counts draws served by an online r^N computation
	// because the pool ran dry, mirroring BitStore.OnlineFallbacks.
	onlineFallbacks int
}

// NewRandomizerPool creates an empty pool for pk.
func NewRandomizerPool(pk *PublicKey) *RandomizerPool {
	return &RandomizerPool{pk: pk}
}

// NewRandomizerPoolOwner creates an empty pool for the key owner: fills and
// fallbacks run through sk's CRT encryption path (~4x cheaper at 512-bit
// keys). This is the client-local pool of the -preprocess path; pools built
// from a bare public key (stock daemon, remote prefetch) use
// NewRandomizerPool and raise r^N mod N² without the factorization, still
// eight per ExpEach where mathx's lanes take N².
func NewRandomizerPoolOwner(sk *PrivateKey) *RandomizerPool {
	return &RandomizerPool{pk: sk.Public(), sk: sk}
}

// reader returns the pool's randomness source.
func (p *RandomizerPool) reader() io.Reader {
	if p.rnd != nil {
		return p.rnd
	}
	return rand.Reader
}

// newRandomizers generates count fresh randomizers: CRT-fast for owners,
// else count nonces read from the pool's reader and raised with one ExpEach
// mod N², Lanes() exponentiations at a time.
func (p *RandomizerPool) newRandomizers(count int) ([]*big.Int, error) {
	if p.sk != nil && p.rnd == nil {
		rns := make([]*big.Int, count)
		var err error
		for i := range rns {
			if rns[i], err = p.sk.FreshRandomizerCRT(); err != nil {
				return nil, err
			}
		}
		return rns, nil
	}
	return raiseUnits(p.pk.reducer(), p.reader(), p.pk.N, count)
}

// Fill precomputes count randomizers. It may be called repeatedly (e.g. from
// a background goroutine while the device is idle, the PDA scenario in the
// paper).
func (p *RandomizerPool) Fill(count int) error {
	return p.FillContext(context.Background(), count)
}

// FillContext is Fill with cancellation: generated randomizers are published
// in chunks of fillChunk, so concurrent Draws see stock while a long refill
// is still running, and a cancelled ctx stops the refill at the next chunk
// boundary (keeping everything already published).
func (p *RandomizerPool) FillContext(ctx context.Context, count int) error {
	if count < 0 {
		return fmt.Errorf("paillier: negative pool fill count %d", count)
	}
	for count > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := count
		if n > fillChunk {
			n = fillChunk
		}
		fresh, err := p.newRandomizers(n)
		if err != nil {
			return fmt.Errorf("paillier: filling randomizer pool: %w", err)
		}
		p.mu.Lock()
		p.stock = append(p.stock, fresh...)
		p.mu.Unlock()
		count -= n
	}
	return nil
}

// Len reports how many randomizers are stocked.
func (p *RandomizerPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.stock)
}

// Depth reports the current stock level — the supply-side gauge matching the
// drain-side OnlineFallbacks counter.
func (p *RandomizerPool) Depth() int { return p.Len() }

// AddStock inserts externally produced randomizers (e.g. a batch fetched
// from a stock daemon) after validating each lies in [1, N²).
func (p *RandomizerPool) AddStock(rns []*big.Int) error {
	for i, rn := range rns {
		if rn == nil || rn.Sign() < 1 || rn.Cmp(p.pk.NSquared) >= 0 {
			return fmt.Errorf("paillier: stocked randomizer %d outside [1, N²)", i)
		}
	}
	p.mu.Lock()
	p.stock = append(p.stock, rns...)
	p.mu.Unlock()
	return nil
}

// Take pops up to max stocked randomizers without ever computing online —
// the serving side of a stock daemon, which returns what it has and leaves
// generation to its refiller.
func (p *RandomizerPool) Take(max int) []*big.Int {
	if max <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.stock)
	if max > n {
		max = n
	}
	out := make([]*big.Int, max)
	for i := 0; i < max; i++ {
		out[i] = p.stock[n-1-i]
		p.stock[n-1-i] = nil
	}
	p.stock = p.stock[:n-max]
	return out
}

// Draw pops one precomputed randomizer, or computes one online if the pool
// is empty. Each randomizer is returned exactly once.
func (p *RandomizerPool) Draw() (*big.Int, error) {
	p.mu.Lock()
	if n := len(p.stock); n > 0 {
		rn := p.stock[n-1]
		p.stock[n-1] = nil
		p.stock = p.stock[:n-1]
		p.mu.Unlock()
		return rn, nil
	}
	p.mu.Unlock()
	rns, err := p.newRandomizers(1)
	if err != nil {
		// Nothing was served: a failed online computation must not count
		// as a fallback, or the SLO metric stockd and the bench harness
		// report would overstate how many draws the fallback path covered.
		return nil, err
	}
	p.mu.Lock()
	p.onlineFallbacks++
	p.mu.Unlock()
	return rns[0], nil
}

// OnlineFallbacks reports how many draws were served by online computation.
func (p *RandomizerPool) OnlineFallbacks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onlineFallbacks
}

// Encrypt encrypts m using a pooled randomizer when available.
func (p *RandomizerPool) Encrypt(m *big.Int) (*Ciphertext, error) {
	rn, err := p.Draw()
	if err != nil {
		return nil, err
	}
	return p.pk.EncryptWithRandomizer(m, rn)
}

// BitStore holds precomputed encryptions of the plaintext bits 0 and 1 —
// the paper's preprocessed index vector. It is safe for concurrent use.
type BitStore struct {
	pk *PublicKey
	// sk, when non-nil, marks an owner-constructed store: fills and online
	// fallbacks encrypt through the CRT fast path. The stock daemon holds
	// only public keys and necessarily leaves it nil.
	sk *PrivateKey

	mu    sync.Mutex
	zeros []*Ciphertext
	ones  []*Ciphertext

	// onlineFallbacks counts draws served by online encryption because the
	// store ran dry; the bench harness reports it so an experiment that
	// accidentally exhausts its preprocessing is visible.
	onlineFallbacks int
}

// NewBitStore creates an empty store for pk.
func NewBitStore(pk *PublicKey) *BitStore {
	return &BitStore{pk: pk}
}

// NewBitStoreOwner creates an empty store for the key owner: preprocessing
// and fallback encryptions run through sk's CRT path (~4x cheaper at
// 512-bit keys) instead of the public r^N exponentiation. This is the
// client-local -preprocess store; stores stocked from a daemon keep using
// NewBitStore with the bare public key.
func NewBitStoreOwner(sk *PrivateKey) *BitStore {
	return &BitStore{pk: sk.Public(), sk: sk}
}

// encryptBit produces one fresh encryption of m, CRT-fast for owners.
func (s *BitStore) encryptBit(m *big.Int) (*Ciphertext, error) {
	if s.sk != nil {
		return s.sk.EncryptCRT(m)
	}
	return s.pk.Encrypt(m)
}

// Fill precomputes zeros encryptions of 0 and ones encryptions of 1.
// This is the offline phase; its cost is deliberately not hidden — the
// bench harness measures it separately as "preprocessing time".
func (s *BitStore) Fill(zeros, ones int) error {
	return s.FillContext(context.Background(), zeros, ones)
}

// FillContext is Fill with cancellation: fresh encryptions are published in
// chunks of fillChunk, so concurrent DrawBits see stock while a long refill
// is still running, and a cancelled ctx stops the refill at the next chunk
// boundary (keeping everything already published).
func (s *BitStore) FillContext(ctx context.Context, zeros, ones int) error {
	if zeros < 0 || ones < 0 {
		return fmt.Errorf("paillier: negative BitStore fill (%d, %d)", zeros, ones)
	}
	fill := func(count int, m *big.Int, dst *[]*Ciphertext) error {
		for count > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := count
			if n > fillChunk {
				n = fillChunk
			}
			fresh := make([]*Ciphertext, 0, n)
			for i := 0; i < n; i++ {
				ct, err := s.encryptBit(m)
				if err != nil {
					return fmt.Errorf("paillier: preprocessing E(%v): %w", m, err)
				}
				fresh = append(fresh, ct)
			}
			s.mu.Lock()
			*dst = append(*dst, fresh...)
			s.mu.Unlock()
			count -= n
		}
		return nil
	}
	if err := fill(zeros, mathx.Zero, &s.zeros); err != nil {
		return err
	}
	return fill(ones, mathx.One, &s.ones)
}

// DrawBit returns a precomputed encryption of bit (0 or 1), encrypting
// online if the store is empty. Each stored ciphertext is returned exactly
// once: reusing one would let the server link two positions of the index
// vector and break client privacy.
func (s *BitStore) DrawBit(bit uint) (*Ciphertext, error) {
	if bit > 1 {
		return nil, fmt.Errorf("paillier: DrawBit(%d): bit must be 0 or 1", bit)
	}
	s.mu.Lock()
	var slot *[]*Ciphertext
	if bit == 0 {
		slot = &s.zeros
	} else {
		slot = &s.ones
	}
	if n := len(*slot); n > 0 {
		ct := (*slot)[n-1]
		(*slot)[n-1] = nil
		*slot = (*slot)[:n-1]
		s.mu.Unlock()
		return ct, nil
	}
	s.mu.Unlock()
	ct, err := s.encryptBit(big.NewInt(int64(bit)))
	if err != nil {
		// As in RandomizerPool.Draw: a failed online encryption served
		// nothing, so it must not count toward the fallback SLO metric.
		return nil, err
	}
	s.mu.Lock()
	s.onlineFallbacks++
	s.mu.Unlock()
	return ct, nil
}

// Remaining reports the stock of precomputed encryptions of bit.
func (s *BitStore) Remaining(bit uint) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bit == 0 {
		return len(s.zeros)
	}
	return len(s.ones)
}

// Depth reports both stock levels in one consistent snapshot — the
// supply-side gauges matching the drain-side OnlineFallbacks counter.
func (s *BitStore) Depth() (zeros, ones int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.zeros), len(s.ones)
}

// AddStock inserts externally produced encryptions of bit (e.g. a batch
// fetched from a stock daemon). Callers are responsible for having parsed
// the ciphertexts under this store's key.
func (s *BitStore) AddStock(bit uint, cts []*Ciphertext) error {
	if bit > 1 {
		return fmt.Errorf("paillier: AddStock(%d): bit must be 0 or 1", bit)
	}
	for i, ct := range cts {
		if ct == nil {
			return fmt.Errorf("paillier: stocked ciphertext %d is nil", i)
		}
	}
	s.mu.Lock()
	if bit == 0 {
		s.zeros = append(s.zeros, cts...)
	} else {
		s.ones = append(s.ones, cts...)
	}
	s.mu.Unlock()
	return nil
}

// Take pops up to max stocked encryptions of bit without ever encrypting
// online — the serving side of a stock daemon, which returns what it has and
// leaves generation to its refiller.
func (s *BitStore) Take(bit uint, max int) []*Ciphertext {
	if bit > 1 || max <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.zeros
	if bit == 1 {
		slot = &s.ones
	}
	n := len(*slot)
	if max > n {
		max = n
	}
	out := make([]*Ciphertext, max)
	for i := 0; i < max; i++ {
		out[i] = (*slot)[n-1-i]
		(*slot)[n-1-i] = nil
	}
	*slot = (*slot)[:n-max]
	return out
}

// OnlineFallbacks reports how many draws were served by online encryption.
func (s *BitStore) OnlineFallbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.onlineFallbacks
}

// FillParallel is Fill using workers goroutines; preprocessing is trivially
// parallel and this keeps the offline phase short on multicore hosts.
func (s *BitStore) FillParallel(zeros, ones, workers int) error {
	return s.FillParallelContext(context.Background(), zeros, ones, workers)
}

// FillParallelContext is FillParallel with FillContext's cancellation
// semantics: each worker publishes in fillChunk batches and stops at the
// next chunk boundary once ctx is cancelled, keeping everything already
// published. This is what lets a daemon shut down mid-refill without either
// blocking on the fill or discarding finished stock.
func (s *BitStore) FillParallelContext(ctx context.Context, zeros, ones, workers int) error {
	if workers < 1 {
		workers = 1
	}
	type job struct{ zeros, ones int }
	jobs := make([]job, workers)
	for i := 0; i < zeros; i++ {
		jobs[i%workers].zeros++
	}
	for i := 0; i < ones; i++ {
		jobs[i%workers].ones++
	}
	errs := make(chan error, workers)
	for _, j := range jobs {
		go func(j job) { errs <- s.FillContext(ctx, j.zeros, j.ones) }(j)
	}
	var first error
	for range jobs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
