package paillier

import (
	"crypto/rand"
	"io"
	"math/big"
	"sync"

	"privstats/internal/mathx"
)

// Randomizers r^N mod N², computed ahead of their use in batches: the
// paper's §3.3 answer to Fig 2's finding that r^N dominates, run
// Reducer.Lanes() exponentiations at a time, which is eight on amd64 with
// AVX512-IFMA (mathx's lane kernels) and one elsewhere.
//
// Two refills feed one batch type. The key owner's (PrivateKey.fresh,
// refillRandomizers in crt.go) raises z^p mod p² and z^q mod q² through the
// factorization. The public route, which every PublicKey from KeyGen or a
// parse takes for Encrypt and Rerandomize (the seal), samples units r of Z*_N
// and raises them with one ExpEach mod N² (raiseUnits below). Either way r is
// uniform over Z*_N and each randomizer leaves its batch once, so every
// ciphertext has the distribution of E(m; r) for a fresh uniform r, as when
// each r^N was computed on demand.
//
// A public batch is worth having only if the r^N of a refill are used, and
// every session builds a new PublicKey from its hello: a batch per key would
// compute eight to seal once. So the batches, and the N² Reducer, live in a
// process-wide table keyed by N (moduli below), which every key with that N
// shares; a repeated key looks its entry up instead of precomputing anything.
// The table holds at most moduliCap entries and drops the least recently
// looked-up one when full. A key that holds a dropped entry keeps using it;
// the next parse of its N builds a fresh one.
//
// Whether the sessions repeat a modulus is the deployment's, not the
// code's, to know, so a batch sizes each refill by the demand it has seen
// (randomizers.refillSize): a refill raises as many randomizers as the batch
// has handed out so far, at least one and at most its width. A new entry's
// first seal raises one r^N with Exp, as it did before there were batches; a
// modulus in steady use refills a whole eight-lane group at a time.

// randomizers hands out one key's randomizers r^N mod N², each once, from
// refills of a batch. It is safe for concurrent use: the batch is popped
// under a lock, and a caller that finds it empty refills outside the lock,
// takes one of the refill and leaves the rest.
type randomizers struct {
	// refill returns count fresh randomizers, 1 ≤ count ≤ width, whose
	// exponentiations run side by side.
	refill func(count int) ([]*big.Int, error)
	width  int // the most one refill raises: its Reducer's Lanes()

	mu     sync.Mutex
	batch  []*big.Int
	handed int // randomizers handed out so far
}

// refillSize is how many randomizers the next refill raises: as many as the
// batch has handed out so far, at least one and at most width. Drawn one at
// a time, a batch then never holds more unused randomizers than it has
// handed out, and a new entry's first draw raises one. Under rs.mu.
func (rs *randomizers) refillSize() int {
	return max(1, min(rs.handed, rs.width))
}

// next returns a randomizer no other call has returned or will return.
func (rs *randomizers) next() (*big.Int, error) {
	rs.mu.Lock()
	if n := len(rs.batch); n > 0 {
		rn := rs.batch[n-1]
		rs.batch[n-1] = nil
		rs.batch = rs.batch[:n-1]
		rs.handed++
		rs.mu.Unlock()
		return rn, nil
	}
	count := rs.refillSize()
	rs.handed++
	rs.mu.Unlock()
	fresh, err := rs.refill(count)
	if err != nil {
		return nil, err
	}
	last := len(fresh) - 1
	if last > 0 {
		rs.mu.Lock()
		rs.batch = append(rs.batch, fresh[:last]...)
		rs.mu.Unlock()
	}
	return fresh[last], nil
}

// raiseUnits returns count randomizers r^N mod N² for units r of Z*_N read
// from rd, raised with one ExpEach on red, the Reducer of N². Its callers are
// a table entry's refill (lookupModulus) and a literal key's randomizer.
func raiseUnits(red *mathx.Reducer, rd io.Reader, n *big.Int, count int) ([]*big.Int, error) {
	rs := make([]*big.Int, count)
	for i := range rs {
		r, err := mathx.RandUnit(rd, n)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	red.ExpEach(rs, rs, n)
	return rs, nil
}

// moduliCap is how many moduli the table holds. It bounds memory, not the
// traffic the batches serve: an entry of a 512-bit key, lane constants and a
// part-used batch included, takes about 6 KB of heap (about 2 KB at 1024
// bits, whose N² takes no lanes), so a full table stays under half a
// megabyte. Traffic that cycles through more moduli finds every entry cold,
// and a cold entry's first seal raises one r^N, as without the table
// (BenchmarkSeal/fresh).
const moduliCap = 64

// modulus is what every PublicKey with one modulus N shares.
type modulus struct {
	n2  *mathx.Reducer
	rns randomizers // r^N mod N², the public route

	used uint64 // the table's clock at the last lookup; under moduli.mu
}

// moduli is the process-wide table of moduli, keyed by N's bytes.
var moduli = struct {
	mu    sync.Mutex
	byN   map[string]*modulus
	clock uint64
}{byN: make(map[string]*modulus)}

// lookupModulus returns the table's entry for the odd modulus n, whose square
// is n2, building it on a miss.
func lookupModulus(n, n2 *big.Int) (*modulus, error) {
	key := n.Bytes()
	moduli.mu.Lock()
	moduli.clock++
	if e := moduli.byN[string(key)]; e != nil {
		e.used = moduli.clock
		moduli.mu.Unlock()
		return e, nil
	}
	moduli.mu.Unlock()

	// Built outside the lock: a miss must not stall other keys' lookups.
	red, err := mathx.NewReducer(n2)
	if err != nil {
		return nil, err
	}
	e := &modulus{n2: red}
	n = new(big.Int).Set(n)
	e.rns.width = red.Lanes()
	e.rns.refill = func(count int) ([]*big.Int, error) {
		return raiseUnits(red, rand.Reader, n, count)
	}

	moduli.mu.Lock()
	defer moduli.mu.Unlock()
	moduli.clock++
	if won := moduli.byN[string(key)]; won != nil { // a concurrent miss got here first
		won.used = moduli.clock
		return won, nil
	}
	if len(moduli.byN) >= moduliCap {
		oldest, oldestUsed := "", moduli.clock
		for k, v := range moduli.byN {
			if v.used < oldestUsed {
				oldest, oldestUsed = k, v.used
			}
		}
		delete(moduli.byN, oldest)
	}
	e.used = moduli.clock
	moduli.byN[string(key)] = e
	return e, nil
}
