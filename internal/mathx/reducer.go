package mathx

import (
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
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
// On amd64 with BMI2 and ADX, for an odd modulus of exactly 8, 16 or 32
// words, montMul is one call into a register kernel (mont8_amd64.s,
// mont16_amd64.s, mont32_amd64.s) with the same result bit for bit, and a
// whole exponentiation, Exp, walks a fixed window over that kernel; otherwise
// Exp is big.Int.Exp. On amd64 with AVX512F and IFMA, for an odd modulus of
// at most 2048 bits, ExpEach walks the same window over eight bases at once on
// a lane kernel (lanes.go): ten radix-2^52 limbs per lane up to 512 bits (a
// 512-bit key's p² and q²), twenty up to 1024 (its N², a 1024-bit key's p²
// and q²), forty up to 2048 (a 1024-bit key's N², a 2048-bit key's p² and
// q²); otherwise it is Exp per element. The bucket fold multiplies eight
// rows into eight buckets per call of the same kernel there (lanefold.go).
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
	kw  int        // the register kernel's width, n; 0 where there is none

	// The lane kernel's width, 10, 20 or 40 limbs, or 0 where none takes m; its
	// constants are built by the first ExpEach or bucket fold, so that
	// Reducers that run neither do not pay for them.
	laneLimbs int
	laneOnce  sync.Once
	lane      *laneConsts
}

// maxKernelWords is the widest register kernel's width.
const maxKernelWords = 32

// noKernel keeps Reducers built while it is set off the register and lane
// kernels, on any CPU, so that tests run the addMulVVW montMul, big.Int.Exp
// and ExpEach's per-element Exp on hosts that have the kernels. Only tests set
// it: this package's directly, other packages' through ForceFallback.
var noKernel atomic.Bool

// ForceFallback keeps every Reducer built from now until restore is called off
// the register and lane kernels, as if the CPU had neither, and returns the
// function that puts back the previous setting. It is a hook for tests in
// other packages, which must run their kernel callers both ways on a CPU that
// has the kernels; Reducers built earlier keep their kernels.
func ForceFallback() (restore func()) {
	was := noKernel.Swap(true)
	return func() { noKernel.Store(was) }
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
		if hasIFMA && !noKernel.Load() {
			r.laneLimbs = laneLimbsFor(m.BitLen())
		}
	}
	return r, nil
}

// Scratch is the working storage of Reducer.Mul: the double-width product
// and the two Barrett products. The second of those multiplies a slice of
// the first, and big.Int.Mul allocates a fresh destination whenever the
// destination's storage overlaps an operand's, so they cannot share a
// buffer. A Scratch may serve any Reducer, one call at a time; the zero
// value is ready, and once its buffers have grown to the modulus a Mul
// allocates nothing. GetScratch recycles them. h is CRT's Garner value,
// an operand of the Mul it makes.
type Scratch struct {
	t, qmu, qm, h big.Int
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

// Exp sets z = x^e mod m and returns z: exactly what z.Exp(x, e, m) returns,
// for every x and every e ≥ 0. Where the Reducer has a register kernel (an
// odd 8-, 16- or 32-word m on amd64 with BMI2 and ADX: the p² and q² of a
// 512-, 1024- or 2048-bit Paillier key, the N² of a 512- or 1024-bit one) and
// x ≥ 0, it is a 4-bit fixed window over that kernel; every other case is
// big.Int.Exp itself, which is also the kernel's test oracle.
func (r *Reducer) Exp(z, x, e *big.Int) *big.Int {
	if w := r.expKernel(z, x, e); w != nil {
		return w
	}
	return z.Exp(x, e, r.m)
}

// expKernel is Exp on the register kernel, in Montgomery form throughout, with
// the table and accumulator on the stack, sized for the widest kernel. It
// returns nil, leaving z untouched, unless the Reducer has a kernel and x and
// e are non-negative.
func (r *Reducer) expKernel(z, x, e *big.Int) *big.Int {
	if r.kw == 0 || x.Sign() < 0 || e.Sign() < 0 {
		return nil
	}
	n := r.n
	if x.Cmp(r.m) >= 0 {
		x = new(big.Int).Mod(x, r.m)
	}
	var xw [maxKernelWords]big.Word
	copy(xw[:], x.Bits())

	// pow[d] is x^d in Montgomery form; pow[0] = R mod m is the form of 1.
	var pow [16][maxKernelWords]big.Word
	r.kmul(&pow[0][0], &r.one[0], &r.rr[0])
	r.kmul(&pow[1][0], &xw[0], &r.rr[0])
	for d := 2; d < len(pow); d += 2 {
		r.kmul(&pow[d][0], &pow[d/2][0], &pow[d/2][0])
		r.kmul(&pow[d+1][0], &pow[d][0], &pow[1][0])
	}

	// As math/big's expNNMontgomery: every digit, zero ones included, costs
	// four squarings and one table multiplication.
	acc := pow[0]
	a := &acc[0]
	ew := e.Bits()
	for i := len(ew) - 1; i >= 0; i-- {
		w := ew[i]
		for j := 0; j < bits.UintSize; j += 4 {
			if i != len(ew)-1 || j != 0 {
				r.kmul(a, a, a)
				r.kmul(a, a, a)
				r.kmul(a, a, a)
				r.kmul(a, a, a)
			}
			r.kmul(a, a, &pow[w>>(bits.UintSize-4)][0])
			w <<= 4
		}
	}
	// Out of Montgomery form: (acc + q·m)/R ≤ m, and m itself only for a base
	// ≡ 0, where the answer is 0.
	r.kmul(a, a, &r.one[0])
	var t [maxKernelWords]big.Word
	if subVV(t[:n], acc[:n], r.mw) == 0 {
		acc = t
	}

	zw := z.Bits()
	if cap(zw) < n {
		zw = make([]big.Word, n)
	}
	zw = zw[:n]
	copy(zw, acc[:n])
	return z.SetBits(zw)
}
