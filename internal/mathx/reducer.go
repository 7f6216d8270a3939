package mathx

import (
	"math/big"
	"math/bits"
)

// Reducer multiplies modulo one fixed modulus without dividing. It holds two
// kernels, one per call shape, both composed from math/big's assembly
// multiply.
//
// A single product — a ciphertext addition, the encrypt assembly, the
// aggregator's combine of shard partials — goes through Mul: Barrett
// reduction (HAC 14.42) in radix b = 2^W, W the machine word size, on
// operands in their ordinary representation. For
// a modulus m of n words, with µ = ⌊b^(2n)/m⌋ computed once, a product
// t < b^(2n) reduces as
//
//	q = ((t ≫ W(n−1))·µ) ≫ W(n+1)
//	r = t − q·m
//
// and q undershoots ⌊t/m⌋ by at most two, so at most two subtractions of m
// finish the job. Both shifts are whole words, taken as slices of the
// products' limbs: nothing is copied. That is three n×n products per
// multiplication and no conversion on the way in or out.
//
// A chain of products — the bucket fold, the only place the stack chains
// them — goes through montMul (montgomery.go): two n×n products per
// multiplication, each leaving a factor R⁻¹ = b^(−n) behind. A fold never adds
// or compares, it only multiplies, so nothing is converted into Montgomery
// form: a wire ciphertext c is taken as the Montgomery form of c/R, the
// product Π c_i^{x_i} comes out short by R^(Σx_i), and the server, which
// knows every x_i, puts that one factor back at the end (Results).
// Montgomery reduction needs an odd modulus; for an even one the chain
// constants are absent and NewMultiExpAcc refuses.
//
// A Reducer is immutable and safe for concurrent use; each concurrent caller
// brings its own Scratch.
type Reducer struct {
	m  *big.Int
	mu *big.Int // ⌊b^(2n)/m⌋
	n  int      // words in m

	// The chain kernel's constants; mw is nil for an even modulus.
	mw  []big.Word // m, as exactly n words
	rr  []big.Word // R² mod m, the Montgomery form of R
	one []big.Word // 1, as n words: a montMul by it converts out
	k0  big.Word   // −m⁻¹ mod b
}

// NewReducer precomputes both kernels' constants for the positive modulus m.
func NewReducer(m *big.Int) (*Reducer, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, ErrBadModulus
	}
	n := len(m.Bits())
	r := &Reducer{m: new(big.Int).Set(m), n: n}
	r2 := new(big.Int)
	r.mu, _ = new(big.Int).QuoRem(new(big.Int).Lsh(One, uint(2*n*bits.UintSize)), m, r2)
	if m.Bit(0) == 1 {
		r.montConstants(r2)
	}
	return r, nil
}

// Scratch is the working storage of Reducer.Mul: the double-width product
// and the two Barrett products. The second of those multiplies a slice of
// the first, and big.Int.Mul allocates a fresh destination whenever the
// destination's storage overlaps an operand's, so they cannot share a
// buffer. A Scratch may serve any Reducer, one call at a time; the zero
// value is ready, and once its buffers have grown to the modulus a Mul
// allocates nothing. GetScratch recycles them.
type Scratch struct {
	t, qmu, qm big.Int
}

// Mul sets z = x·y mod m and returns z. z may alias x or y. The division-free
// path needs x·y in [0, b^(2n)), which holds whenever both operands are
// reduced; any other product (a negative or an oversized operand) falls back
// to big.Int.Mod, which is correct but allocates and divides.
func (r *Reducer) Mul(z, x, y *big.Int, s *Scratch) *big.Int {
	t := s.t.Mul(x, y)
	tw := t.Bits()
	if t.Sign() < 0 || len(tw) > 2*r.n {
		return z.Mod(t, r.m)
	}
	if len(tw) >= r.n { // else t < b^(n−1) ≤ m already
		var hi, q big.Int
		hi.SetBits(tw[r.n-1:])
		if p := s.qmu.Mul(&hi, r.mu).Bits(); len(p) > r.n+1 {
			q.SetBits(p[r.n+1:])
			t.Sub(t, s.qm.Mul(&q, r.m))
		}
		// 0 ≤ t < 3m: exactly two conditional subtractions, not a loop, so
		// the bound is part of what the equivalence tests pin.
		if t.Cmp(r.m) >= 0 {
			t.Sub(t, r.m)
			if t.Cmp(r.m) >= 0 {
				t.Sub(t, r.m)
			}
		}
	}
	// Copied out rather than computed in place: z is typically a long-lived
	// bucket or ciphertext, and must not inherit the product's double width.
	return z.Set(t)
}
