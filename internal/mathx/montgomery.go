package mathx

import (
	"math/big"
	"math/bits"
)

// This file is the chain kernel of a Reducer: Montgomery multiplication on
// fixed-length limb slices, built from math/big's assembly addMulVVW (see
// arith_linkname.go). With R = b^n, montMul(x, y) = x·y·R⁻¹ mod m costs two
// n×n word products where Reducer.Mul costs three, but every product drags a
// factor R⁻¹ along, so it only pays where multiplications chain and the stray
// factors can be cancelled in one go: the bucket fold (MultiExpAcc).

// Words returns the length of the modulus in machine words. Every limb slice
// the chain kernel takes or returns has exactly this length.
func (r *Reducer) Words() int { return r.n }

// Limbs stores x, which must be in [0, m), into dst as Words() little-endian
// words and returns them; dst is reused when it is large enough.
func (r *Reducer) Limbs(dst []big.Word, x *big.Int) []big.Word {
	if cap(dst) < r.n {
		dst = make([]big.Word, r.n)
	}
	dst = dst[:r.n]
	clear(dst[copy(dst, x.Bits()):])
	return dst
}

// montConstants derives the chain kernel's constants for an odd modulus:
// m as exactly n words, k0 = −m⁻¹ mod b, rr = R² mod m (the Montgomery form
// of R) and the integer 1. r2 is b^(2n) mod m.
func (r *Reducer) montConstants(r2 *big.Int) {
	r.mw = r.Limbs(nil, r.m)
	r.one = r.Limbs(nil, One)
	// Newton's iteration doubles the valid low bits of the inverse each
	// round; m·m ≡ 1 mod 8 starts it at three.
	inv := r.mw[0]
	for valid := 3; valid < bits.UintSize; valid *= 2 {
		inv *= 2 - r.mw[0]*inv
	}
	r.k0 = -inv
	r.rr = r.Limbs(nil, r2)
	r.kw = kernelWidth(r.n)
}

// montMul sets z = x·y·R⁻¹ mod m, as some representative in [0, R): the
// result is not reduced below m, and need not be — x and y may be any values
// in [0, R), so results chain. x, y and z have n words, t is 2n words of
// scratch; z may alias x or y. Where the Reducer has a register kernel it is
// one call into that, else montMulVVW.
func (r *Reducer) montMul(z, x, y, t []big.Word) {
	if r.kw != 0 {
		r.kmul(&z[0], &x[0], &y[0])
		return
	}
	r.montMulVVW(z, x, y, t)
}

// montMulVVW is montMul composed from addMulVVW; the loop is math/big's
// nat.montgomery.
func (r *Reducer) montMulVVW(z, x, y, t []big.Word) {
	n := r.n
	clear(t[:n])
	var c big.Word
	for i := 0; i < n; i++ {
		c2 := addMulVVW(t[i:n+i], x, y[i])
		c3 := addMulVVW(t[i:n+i], r.mw, t[i]*r.k0)
		cx := c + c2
		cy := cx + c3
		t[n+i] = cy
		if cx < c2 || cy < c3 {
			c = 1
		} else {
			c = 0
		}
	}
	// The sum is below R + m: a carry out of 2n words means it is in
	// [R, R + m), and taking m off brings it back under R.
	if c != 0 {
		subVV(z, t[n:], r.mw)
	} else {
		copy(z, t[n:])
	}
}

// montPow sets z = x^e in Montgomery form, e ≥ 1, by square and multiply
// on montMul; z must not alias x. t is 2n words of scratch.
func (r *Reducer) montPow(z, x []big.Word, e uint, t []big.Word) {
	copy(z, x)
	for i := bits.Len(e) - 2; i >= 0; i-- {
		r.montMul(z, z, z, t)
		if e>>i&1 == 1 {
			r.montMul(z, z, x, t)
		}
	}
}

// montOut converts x out of Montgomery form in place — one montMul by 1 —
// and returns it as the canonical residue in [0, m), sharing x's storage.
// t is 2n words of scratch.
func (r *Reducer) montOut(x, t []big.Word) *big.Int {
	r.montMul(x, x, r.one, t)
	// x + k·m with k < R, over R: at most m, and m itself only for x ≡ 0.
	if subVV(t[:r.n], x, r.mw) == 0 {
		copy(x, t[:r.n])
	}
	return new(big.Int).SetBits(x)
}
