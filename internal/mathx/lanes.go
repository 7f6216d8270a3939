package mathx

import (
	"math/big"
	"math/bits"
)

// The lane kernel runs eight exponentiations that share a modulus and an
// exponent side by side, one per 64-bit lane of a ZMM register: the shape of
// Paillier's randomizers, many independent z^p mod p² or r^N mod N² at once
// (Drucker and Gueron's multi-buffer AVX512-IFMA exponentiation). laneMul10
// and laneMul20 (lanes10_amd64.s and lanes20_amd64.s, generated by
// gen_lanes.go) are almost-Montgomery multiplies in radix 2^52, ten or twenty
// limbs per lane, R = 2^520 or 2^1040; they need inputs below 2m and return a
// result below 2m, so a modulus of at most 512 or 1024 bits keeps 4m < R. Ten
// limbs take a 512-bit key's p² and q²; twenty take its N² and a 1024-bit
// key's p² and q².
const (
	laneCount    = 8    // lanes in a ZMM register
	laneMaxLimbs = 20   // radix-2^52 limbs per lane, at most
	laneBits     = 1024 // the widest modulus the lanes take
	limbBits     = 52
	limbMask     = 1<<limbBits - 1
)

// laneNum is eight residues in radix 2^52, limb-major: [j][l] is limb j of
// lane l, so row j is one ZMM register. A ten-limb kernel reads and writes
// only rows 0–9, whose values are then below 2^520.
type laneNum [laneMaxLimbs][laneCount]uint64

// laneConsts are a Reducer's lane-kernel constants, every laneNum the same
// value in all eight lanes.
type laneConsts struct {
	limbs int // 10 or 20: the kernel's width
	m     [laneMaxLimbs]uint64
	k0    uint64  // −m⁻¹ mod 2^52
	rr    laneNum // R² mod m: a mul by it converts into Montgomery form
	r1    laneNum // R mod m, the Montgomery form of 1
	one   laneNum // 1: a mul by it converts out
}

// newLaneConsts returns the lane constants for an odd m on the kernel of
// limbs limbs, 10 for m < 2^512 or 20 for m < 2^1024.
func newLaneConsts(m *big.Int, limbs int) *laneConsts {
	c := &laneConsts{limbs: limbs}
	mw := m.Bits()
	for j := range c.m {
		c.m[j] = limbAt(mw, limbBits*j)
	}
	b := new(big.Int).Lsh(One, limbBits)
	inv := new(big.Int).ModInverse(new(big.Int).Mod(m, b), b)
	c.k0 = new(big.Int).Sub(b, inv).Uint64() & limbMask
	rr := new(big.Int).Lsh(One, uint(2*limbBits*c.limbs))
	rr.Mod(rr, m)
	r1 := new(big.Int).Lsh(One, uint(limbBits*c.limbs))
	r1.Mod(r1, m)
	for l := 0; l < laneCount; l++ {
		c.rr.set(l, rr.Bits())
		c.r1.set(l, r1.Bits())
		c.one.set(l, One.Bits())
	}
	return c
}

// mul sets z = x·y·R⁻¹ lane by lane on the Reducer's kernel, as laneMul10
// and laneMul20 do. The calls are direct so that the operands, which live on
// ExpEach's stack, do not escape.
func (c *laneConsts) mul(z, x, y *laneNum) {
	if c.limbs == 10 {
		laneMul10(z, x, y, &c.m, c.k0)
	} else {
		laneMul20(z, x, y, &c.m, c.k0)
	}
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

// set puts x < 2^1040, given as its words, into lane l.
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
			if j >= laneMaxLimbs {
				break
			}
			w |= big.Word(a[j][l]>>s) << got
			got += limbBits - s
		}
		zw[k] = w
	}
}

// Lanes returns how many exponentiations ExpEach runs at once: 8 where a
// lane kernel applies (an odd modulus of at most 1024 bits, on amd64 with
// AVX512F and IFMA and the OS saving ZMM state), else 1.
func (r *Reducer) Lanes() int {
	if r.laneLimbs != 0 {
		return laneCount
	}
	return 1
}

// lanes returns the Reducer's lane constants, building them on first use;
// the Reducer must have a lane kernel.
func (r *Reducer) lanes() *laneConsts {
	r.laneOnce.Do(func() { r.lane = newLaneConsts(r.m, r.laneLimbs) })
	return r.lane
}

// ExpEach sets z[i] = x[i]^e mod m for every i: exactly what
// z[i].Exp(x[i], e, m) returns. Where the Reducer has a lane kernel and
// e ≥ 0 it walks Exp's fixed 4-bit window over eight bases at a time, one per
// lane, except for a last group too short to pay for the lanes (lanesPay);
// otherwise it is Exp per element. z and x have the same length, every
// z[i] is non-nil, and z[i] may be x[i] but no other x[j]. Bases in [0, m)
// cost no allocation beyond growing a z[i] to m's words.
func (r *Reducer) ExpEach(z, x []*big.Int, e *big.Int) {
	if len(z) != len(x) {
		panic("mathx: ExpEach with len(z) != len(x)")
	}
	if r.laneLimbs == 0 || e.Sign() < 0 {
		for i := range x {
			r.Exp(z[i], x[i], e)
		}
		return
	}
	for i := 0; i < len(x); i += laneCount {
		j := min(i+laneCount, len(x))
		if j-i < r.lanesPay() {
			for k := i; k < j; k++ {
				r.Exp(z[k], x[k], e)
			}
			continue
		}
		r.expLanes(z[i:j], x[i:j], e)
	}
}

// lanesPay is the fewest bases a lane call must carry to cost less than Exp
// on each. A lane call costs the same for one base as for eight: on a 2-vCPU
// Intel Xeon with AVX512-IFMA, BenchmarkReducerExp's short groups read, in
// medians of eight runs, ≈ 43 µs per lane call against ≈ 31 µs per Exp at
// ten limbs (p2x1..3), so two bases pay; and ≈ 440 µs against ≈ 250 µs at
// twenty (rNx1..3), where two bases are a wash (≈ 470 against ≈ 450 µs)
// and three pay (≈ 445 against ≈ 750 µs). Without a register kernel Exp is
// big.Int.Exp (≈ 500 µs at rN's width), which the lanes beat from one base.
func (r *Reducer) lanesPay() int {
	switch {
	case r.kw == 0:
		return 1
	case r.laneLimbs == 10:
		return 2
	default:
		return 3
	}
}

// expLanes is ExpEach on the lane kernel for at most eight bases; lanes past
// len(x) exponentiate 0 and are dropped. As in expKernel, every digit, zero
// ones included, costs four squarings and one table multiplication, and the
// digits are e's, shared by every lane, so the table row is the same for all.
func (r *Reducer) expLanes(z, x []*big.Int, e *big.Int) {
	c := r.lanes()
	// pow[d] is x^d in Montgomery form, lane by lane.
	var pow [16]laneNum
	for l, xl := range x {
		if xl.Sign() < 0 || xl.Cmp(r.m) >= 0 {
			xl = new(big.Int).Mod(xl, r.m)
		}
		pow[1].set(l, xl.Bits())
	}
	pow[0] = c.r1
	c.mul(&pow[1], &pow[1], &c.rr)
	for d := 2; d < len(pow); d += 2 {
		c.mul(&pow[d], &pow[d/2], &pow[d/2])
		c.mul(&pow[d+1], &pow[d], &pow[1])
	}

	acc := pow[0]
	ew := e.Bits()
	for i := len(ew) - 1; i >= 0; i-- {
		w := ew[i]
		for j := 0; j < bits.UintSize; j += 4 {
			if i != len(ew)-1 || j != 0 {
				c.mul(&acc, &acc, &acc)
				c.mul(&acc, &acc, &acc)
				c.mul(&acc, &acc, &acc)
				c.mul(&acc, &acc, &acc)
			}
			c.mul(&acc, &acc, &pow[w>>(bits.UintSize-4)])
			w <<= 4
		}
	}
	// Out of Montgomery form: (acc + Q·m)/R ≤ m, and m itself only for a
	// base ≡ 0, where the answer is 0.
	c.mul(&acc, &acc, &c.one)
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
