package mathx

import (
	"math/big"
	"math/bits"
)

// The lane kernel runs eight exponentiations that share a modulus and an
// exponent side by side, one per 64-bit lane of a ZMM register: the shape of
// a Paillier key owner's randomizers, many independent z^p mod p² at once
// (Drucker and Gueron's multi-buffer AVX512-IFMA exponentiation). laneMul
// (lanes_amd64.s, generated by gen_lanes.go) is an almost-Montgomery multiply
// in radix 2^52, ten limbs per lane, R = 2^520; it needs inputs below 2m and
// returns a result below 2m, so a modulus of at most 512 bits keeps 4m < R.
const (
	laneCount = 8   // lanes in a ZMM register
	laneLimbs = 10  // radix-2^52 limbs per lane
	laneBits  = 512 // the widest modulus the lanes take
	limbBits  = 52
	limbMask  = 1<<limbBits - 1
)

// laneNum is eight residues in radix 2^52, limb-major: [j][l] is limb j of
// lane l, so row j is one ZMM register.
type laneNum [laneLimbs][laneCount]uint64

// laneConsts are a Reducer's lane-kernel constants, every laneNum the same
// value in all eight lanes.
type laneConsts struct {
	m   [laneLimbs]uint64
	k0  uint64  // −m⁻¹ mod 2^52
	rr  laneNum // R² mod m: a laneMul by it converts into Montgomery form
	r1  laneNum // R mod m, the Montgomery form of 1
	one laneNum // 1: a laneMul by it converts out
}

// newLaneConsts returns the lane constants for an odd m of at most laneBits
// bits.
func newLaneConsts(m *big.Int) *laneConsts {
	c := new(laneConsts)
	mw := m.Bits()
	for j := range c.m {
		c.m[j] = limbAt(mw, limbBits*j)
	}
	b := new(big.Int).Lsh(One, limbBits)
	inv := new(big.Int).ModInverse(new(big.Int).Mod(m, b), b)
	c.k0 = new(big.Int).Sub(b, inv).Uint64() & limbMask
	rr := new(big.Int).Lsh(One, 2*limbBits*laneLimbs)
	rr.Mod(rr, m)
	r1 := new(big.Int).Lsh(One, limbBits*laneLimbs)
	r1.Mod(r1, m)
	for l := 0; l < laneCount; l++ {
		c.rr.set(l, rr.Bits())
		c.r1.set(l, r1.Bits())
		c.one.set(l, One.Bits())
	}
	return c
}

// limbAt returns the 52 bits of xw starting at bit off.
func limbAt(xw []big.Word, off int) uint64 {
	var v uint64
	for got := 0; got < limbBits; {
		k, s := (off+got)/bits.UintSize, (off+got)%bits.UintSize
		if k >= len(xw) {
			break
		}
		v |= uint64(xw[k]>>s) << got
		got += bits.UintSize - s
	}
	return v & limbMask
}

// set puts x < 2^520, given as its words, into lane l.
func (a *laneNum) set(l int, xw []big.Word) {
	for j := range a {
		a[j][l] = limbAt(xw, limbBits*j)
	}
}

// get writes the low len(zw) words of lane l into zw.
func (a *laneNum) get(l int, zw []big.Word) {
	for k := range zw {
		var w big.Word
		for got := 0; got < bits.UintSize; {
			j, s := (k*bits.UintSize+got)/limbBits, (k*bits.UintSize+got)%limbBits
			if j >= laneLimbs {
				break
			}
			w |= big.Word(a[j][l]>>s) << got
			got += limbBits - s
		}
		zw[k] = w
	}
}

// Lanes returns how many exponentiations ExpEach runs at once: 8 where the
// lane kernel applies (an odd modulus of at most 512 bits, on amd64 with
// AVX512F and IFMA and the OS saving ZMM state), else 1.
func (r *Reducer) Lanes() int {
	if r.lane != nil {
		return laneCount
	}
	return 1
}

// ExpEach sets z[i] = x[i]^e mod m for every i: exactly what
// z[i].Exp(x[i], e, m) returns. Where the Reducer has the lane kernel and
// e ≥ 0 it walks Exp's fixed 4-bit window over eight bases at a time, one per
// lane; otherwise it is Exp per element. z and x have the same length, every
// z[i] is non-nil, and z[i] may be x[i] but no other x[j]. Bases in [0, m)
// cost no allocation beyond growing a z[i] to m's words.
func (r *Reducer) ExpEach(z, x []*big.Int, e *big.Int) {
	if len(z) != len(x) {
		panic("mathx: ExpEach with len(z) != len(x)")
	}
	if r.lane == nil || e.Sign() < 0 {
		for i := range x {
			r.Exp(z[i], x[i], e)
		}
		return
	}
	for i := 0; i < len(x); i += laneCount {
		j := min(i+laneCount, len(x))
		r.expLanes(z[i:j], x[i:j], e)
	}
}

// expLanes is ExpEach on the lane kernel for at most eight bases; lanes past
// len(x) exponentiate 0 and are dropped. As in expKernel, every digit, zero
// ones included, costs four squarings and one table multiplication, and the
// digits are e's, shared by every lane, so the table row is the same for all.
func (r *Reducer) expLanes(z, x []*big.Int, e *big.Int) {
	c := r.lane
	// pow[d] is x^d in Montgomery form, lane by lane.
	var pow [16]laneNum
	for l, xl := range x {
		if xl.Sign() < 0 || xl.Cmp(r.m) >= 0 {
			xl = new(big.Int).Mod(xl, r.m)
		}
		pow[1].set(l, xl.Bits())
	}
	pow[0] = c.r1
	laneMul(&pow[1], &pow[1], &c.rr, &c.m, c.k0)
	for d := 2; d < len(pow); d += 2 {
		laneMul(&pow[d], &pow[d/2], &pow[d/2], &c.m, c.k0)
		laneMul(&pow[d+1], &pow[d], &pow[1], &c.m, c.k0)
	}

	acc := pow[0]
	ew := e.Bits()
	for i := len(ew) - 1; i >= 0; i-- {
		w := ew[i]
		for j := 0; j < bits.UintSize; j += 4 {
			if i != len(ew)-1 || j != 0 {
				laneMul(&acc, &acc, &acc, &c.m, c.k0)
				laneMul(&acc, &acc, &acc, &c.m, c.k0)
				laneMul(&acc, &acc, &acc, &c.m, c.k0)
				laneMul(&acc, &acc, &acc, &c.m, c.k0)
			}
			laneMul(&acc, &acc, &pow[w>>(bits.UintSize-4)], &c.m, c.k0)
			w <<= 4
		}
	}
	// Out of Montgomery form: (acc + Q·m)/R ≤ m, and m itself only for a
	// base ≡ 0, where the answer is 0.
	laneMul(&acc, &acc, &c.one, &c.m, c.k0)
	for l, zl := range z {
		zw := zl.Bits()
		if cap(zw) < r.n {
			zw = make([]big.Word, r.n)
		}
		zw = zw[:r.n]
		acc.get(l, zw)
		if zl.SetBits(zw).Cmp(r.m) >= 0 {
			zl.Sub(zl, r.m)
		}
	}
}
