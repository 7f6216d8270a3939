package mathx

import (
	"bytes"
	crand "crypto/rand"
	"math/big"
	"math/bits"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

// laneModuli are ExpEach's shapes: odd moduli of at most 2048 bits, which a
// lane kernel takes where the CPU has it (ten limbs up to 512 bits: all-ones
// limbs, a low modulus whose top limbs are zero, and a random odd 300-bit
// value; twenty up to 1024: 2^513−1 just past the ten-limb kernel, all-ones
// and near-top 1024-bit values, and a random odd 800-bit value; forty up to
// 2048: 2^1025−1 just past the twenty-limb kernel, all-ones and near-top
// 2048-bit values, and a random odd 1600-bit value), and the moduli they
// never take: an even one and an odd one over 2048 bits.
func laneModuli() map[string]*big.Int {
	top := new(big.Int).Lsh(One, 512)
	rng := rand.New(rand.NewSource(34))
	rnd := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 300))
	rnd800 := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 800))
	rnd1600 := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 1600))
	return map[string]*big.Int{
		"2^512-1":    new(big.Int).Sub(top, One),
		"2^512-569":  new(big.Int).Sub(top, big.NewInt(569)),
		"2^448+1":    new(big.Int).Add(new(big.Int).Lsh(One, 448), One),
		"odd300":     rnd.SetBit(rnd, 299, 1).SetBit(rnd, 0, 1),
		"3":          big.NewInt(3),
		"2^513-1":    new(big.Int).Sub(new(big.Int).Lsh(top, 1), One),
		"odd800":     rnd800.SetBit(rnd800, 799, 1).SetBit(rnd800, 0, 1),
		"2^1024-105": new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105)),
		"2^1024-1":   new(big.Int).Sub(new(big.Int).Lsh(One, 1024), One),
		"even":       new(big.Int).Sub(top, big.NewInt(2)),
		"2^1025-1":   new(big.Int).Sub(new(big.Int).Lsh(One, 1025), One),
		"odd1600":    rnd1600.SetBit(rnd1600, 1599, 1).SetBit(rnd1600, 0, 1),
		"2^2048-159": new(big.Int).Sub(new(big.Int).Lsh(One, 2048), big.NewInt(159)),
		"2^2048-1":   new(big.Int).Sub(new(big.Int).Lsh(One, 2048), One),
		"2^2049-1":   new(big.Int).Sub(new(big.Int).Lsh(One, 2049), One),
	}
}

// laneBases returns count bases for m: 0, 1, m−1, values at and above m,
// negative ones, and x itself, cycled with an offset.
func laneBases(m, x *big.Int, count int) []*big.Int {
	mMinus1 := new(big.Int).Sub(m, One)
	special := []*big.Int{
		new(big.Int), One, mMinus1, new(big.Int).Set(m), new(big.Int).Add(m, x),
		x, new(big.Int).Neg(x), new(big.Int).Lsh(m, 3),
	}
	xs := make([]*big.Int, count)
	for i := range xs {
		xs[i] = new(big.Int).Add(special[i%len(special)], big.NewInt(int64(i/len(special))))
	}
	return xs
}

// wantLanes reports whether a Reducer for m built with the kernels on should
// have a lane kernel.
func wantLanes(m *big.Int, on bool) bool {
	return on && hasIFMA && m.Bit(0) == 1 && m.BitLen() <= laneBits
}

// TestNewReducerLaneWidth: NewReducer puts an odd modulus of at most 512 bits
// on the ten-limb lanes, one of at most 1024 bits (a 512-bit key's N² among
// them) on the twenty-limb lanes, one of at most 2048 bits (a 1024-bit key's
// N²) on the forty-limb lanes, and every other modulus, or any modulus under
// ForceFallback, on one lane.
func TestNewReducerLaneWidth(t *testing.T) {
	p, q, err := GeneratePrimePair(crand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	p, q, err = GeneratePrimePair(crand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	n1024 := new(big.Int).Mul(p, q)
	mods := laneModuli()
	cases := []struct {
		name     string
		m        *big.Int
		fallback bool
		limbs    int // 0: one lane
	}{
		{"2^512-569", mods["2^512-569"], false, 10},
		{"2^1024-105", mods["2^1024-105"], false, 20},
		{"2^1024-1", mods["2^1024-1"], false, 20},
		{"2^513-1", mods["2^513-1"], false, 20},
		{"N² of a 512-bit key", new(big.Int).Mul(n, n), false, 20},
		{"2^1025-1", mods["2^1025-1"], false, 40},
		{"2^2048-1", mods["2^2048-1"], false, 40},
		{"N² of a 1024-bit key", new(big.Int).Mul(n1024, n1024), false, 40},
		{"2^2049-1", mods["2^2049-1"], false, 0},
		{"even", mods["even"], false, 0},
		{"2^512-569 under ForceFallback", mods["2^512-569"], true, 0},
	}
	if !hasIFMA {
		t.Log("no lane kernel on this CPU: every modulus is on one lane")
	}
	for _, c := range cases {
		restore := func() {}
		if c.fallback {
			restore = ForceFallback()
		}
		r, err := NewReducer(c.m)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		want := c.limbs
		if !hasIFMA {
			want = 0
		}
		if got := r.laneLimbs; got != want {
			t.Errorf("%s (%d bits): %d limbs per lane, want %d", c.name, c.m.BitLen(), got, want)
		}
		if wantN := map[bool]int{true: laneCount, false: 1}[want != 0]; r.Lanes() != wantN {
			t.Errorf("%s: Lanes() = %d, want %d", c.name, r.Lanes(), wantN)
		}
	}
}

// expEachCheck runs ExpEach over xs mod m, into fresh destinations and in
// place, and holds every element to big.Int.Exp.
func expEachCheck(t *testing.T, r *Reducer, m *big.Int, xs []*big.Int, e *big.Int) {
	t.Helper()
	z := make([]*big.Int, len(xs))
	in := make([]*big.Int, len(xs))
	for i, x := range xs {
		z[i] = new(big.Int)
		in[i] = new(big.Int).Set(x)
	}
	r.ExpEach(z, xs, e)
	r.ExpEach(in, in, e)
	for i, x := range xs {
		want := new(big.Int).Exp(x, e, m)
		if z[i].Cmp(want) != 0 {
			t.Fatalf("ExpEach element %d of %d: %v^%v mod %v = %v, want %v", i, len(xs), x, e, m, z[i], want)
		}
		if in[i].Cmp(want) != 0 {
			t.Fatalf("in-place ExpEach element %d of %d: %v^%v mod %v = %v, want %v", i, len(xs), x, e, m, in[i], want)
		}
	}
}

// FuzzReducerExpEach: ExpEach must return exactly what big.Int.Exp returns,
// element by element, with the kernels on and forced off, for any modulus,
// bases and non-negative exponent, at counts that do and do not fill the last
// group of eight — the differential gate of the lane kernel.
func FuzzReducerExpEach(f *testing.F) {
	e256 := new(big.Int).Sub(new(big.Int).Lsh(One, 256), big.NewInt(189)).Bytes()
	e512 := new(big.Int).Sub(new(big.Int).Lsh(One, 512), big.NewInt(12345)).Bytes()
	x := new(big.Int).Lsh(big.NewInt(0x5eed), 300).Bytes()
	for _, m := range laneModuli() {
		for _, e := range [][]byte{{0}, {1}, e256, e512} {
			for _, count := range []uint8{1, 9} {
				f.Add(m.Bytes(), x, e, count)
			}
		}
		f.Add(m.Bytes(), x, e256, uint8(8))
		f.Add(m.Bytes(), x, e256, uint8(17))
	}
	f.Fuzz(func(t *testing.T, mRaw, xRaw, eRaw []byte, count uint8) {
		m := new(big.Int).SetBytes(mRaw)
		if m.Sign() == 0 || len(eRaw) > 80 {
			t.Skip()
		}
		// The lanes' shapes are rare among arbitrary bytes: also try the
		// odd moduli of at most 512, 1024 and 2048 bits (ten, twenty and
		// forty limbs) that share m's low bits.
		mods := []*big.Int{m}
		for _, bits := range []uint{512, 1024, laneBits} {
			mk := new(big.Int).Mod(m, new(big.Int).Lsh(One, bits))
			mods = append(mods, mk.SetBit(mk, 0, 1))
		}
		e := new(big.Int).SetBytes(eRaw)
		x := new(big.Int).SetBytes(xRaw)
		for _, m := range mods {
			xs := laneBases(m, x, int(count)%24)
			for _, on := range []bool{true, false} {
				noKernel.Store(!on)
				r, err := NewReducer(m)
				noKernel.Store(false)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.Lanes() == laneCount; got != wantLanes(m, on) {
					t.Fatalf("m = %v, kernels on = %v: Lanes() = %d", m, on, r.Lanes())
				}
				expEachCheck(t, r, m, xs, e)
			}
		}
	})
}

// TestExpEachShapes: Lanes reports the lane kernel exactly where it applies,
// ExpEach agrees with big.Int.Exp there and on the fallback, and a negative
// exponent (big.Int.Exp's modular inverse) takes the fallback.
func TestExpEachShapes(t *testing.T) {
	if !hasIFMA {
		t.Log("no lane kernel on this CPU: only the per-element fallback is exercised")
	}
	kernelModes(t, func(t *testing.T, on bool) {
		rng := rand.New(rand.NewSource(34))
		for name, m := range laneModuli() {
			r, err := NewReducer(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Lanes() == laneCount; got != wantLanes(m, on) {
				t.Fatalf("%s: Lanes() = %d", name, r.Lanes())
			}
			for _, count := range []int{0, 1, 7, 8, 13} {
				xs := make([]*big.Int, count)
				for i := range xs {
					xs[i] = new(big.Int).Rand(rng, m)
				}
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(rng.Intn(600))))
				expEachCheck(t, r, m, xs, e)
			}
			if m.Bit(0) == 1 { // 2 is a unit: big.Int.Exp inverts it
				expEachCheck(t, r, m, []*big.Int{big.NewInt(2), big.NewInt(2)}, big.NewInt(-5))
			}
		}
	})
}

// TestLaneMulContract holds laneMul to its contract at the edge of its
// domain: operands anywhere below 2m, up to 2m − 1, give a result congruent
// to x·y·R⁻¹, below 2m, with every limb below 2^52.
func TestLaneMulContract(t *testing.T) {
	if !hasIFMA {
		t.Skip("no lane kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(52))
	for name, m := range laneModuli() {
		if !wantLanes(m, true) {
			continue
		}
		r, err := NewReducer(m)
		if err != nil {
			t.Fatal(err)
		}
		c := r.lanes()
		bigR := new(big.Int).Lsh(One, uint(limbBits*c.limbs))
		inv := new(big.Int).ModInverse(new(big.Int).Mod(bigR, m), m)
		twoM := new(big.Int).Lsh(m, 1)
		for round := 0; round < 20; round++ {
			x, y, z := make(laneNum, c.limbs), make(laneNum, c.limbs), make(laneNum, c.limbs)
			xs, ys := make([]*big.Int, laneCount), make([]*big.Int, laneCount)
			for l := range xs {
				xs[l] = new(big.Int).Rand(rng, twoM)
				ys[l] = new(big.Int).Rand(rng, twoM)
				if round == 0 {
					xs[l].Sub(twoM, One)
					ys[l].Sub(twoM, One)
				}
				x.set(l, xs[l].Bits())
				y.set(l, ys[l].Bits())
			}
			c.mul(z, x, y)
			for l := range xs {
				for j := range z {
					if z[j][l] > limbMask {
						t.Fatalf("%s: lane %d limb %d = %#x, not below 2^52", name, l, j, z[j][l])
					}
				}
				got := laneValue(z, l)
				want := new(big.Int).Mul(xs[l], ys[l])
				want.Mul(want, inv).Mod(want, m)
				if got.Cmp(twoM) >= 0 || new(big.Int).Mod(got, m).Cmp(want) != 0 {
					t.Fatalf("%s: lane %d: laneMul(%v, %v) = %v, want ≡ %v and below 2m", name, l, xs[l], ys[l], got, want)
				}
			}
		}
	}
}

// laneValue reads lane l of a as an integer, limb by limb.
func laneValue(a laneNum, l int) *big.Int {
	v := new(big.Int)
	for j := len(a) - 1; j >= 0; j-- {
		v.Lsh(v, limbBits).Add(v, new(big.Int).SetUint64(a[j][l]))
	}
	return v
}

// TestLaneLimbsRoundTrip: set and get move a value below 2^2048 into a lane
// of a forty-limb operand and back unchanged, on every word size, and leave
// the other lanes alone.
func TestLaneLimbsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make(laneNum, laneMaxLimbs)
	vals := make([]*big.Int, laneCount)
	for l := range vals {
		vals[l] = new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(1+rng.Intn(laneBits))))
		a.set(l, vals[l].Bits())
	}
	vals[3] = new(big.Int).Sub(new(big.Int).Lsh(One, laneBits), One)
	a.set(3, vals[3].Bits())
	for l, v := range vals {
		if got := laneValue(a, l); got.Cmp(v) != 0 {
			t.Fatalf("lane %d holds %v, want %v", l, got, v)
		}
		zw := make([]big.Word, len(vals[3].Bits()))
		a.get(l, zw)
		if got := new(big.Int).SetBits(zw); got.Cmp(v) != 0 {
			t.Fatalf("lane %d reads back as %v, want %v", l, got, v)
		}
	}
}

// TestExpEachDoesNotAllocate: on every lane kernel, bases in [0, m) and
// destinations that already have m's words cost ExpEach no allocation.
func TestExpEachDoesNotAllocate(t *testing.T) {
	if !hasIFMA {
		t.Skip("no lane kernel on this CPU")
	}
	for _, name := range []string{"2^512-569", "2^1024-105", "2^2048-159"} {
		m := laneModuli()[name]
		r, _ := NewReducer(m)
		rng := rand.New(rand.NewSource(8))
		xs, z := make([]*big.Int, 11), make([]*big.Int, 11)
		for i := range xs {
			xs[i] = new(big.Int).Rand(rng, m)
			z[i] = new(big.Int).Set(m)
		}
		e := new(big.Int).Rsh(m, uint(m.BitLen()/2))
		if n := testing.AllocsPerRun(10, func() { r.ExpEach(z, xs, e) }); n != 0 {
			t.Fatalf("%s: ExpEach allocated %v times per call", name, n)
		}
	}
}

// TestLaneKernelGenerated: the committed lanes10_amd64.s, lanes20_amd64.s
// and lanes40_amd64.s are exactly gen_lanes.go's output at ten, twenty and
// forty limbs.
func TestLaneKernelGenerated(t *testing.T) {
	for _, limbs := range []string{"10", "20", "40"} {
		out, err := exec.Command("go", "run", "gen_lanes.go", "-limbs", limbs).Output()
		if err != nil {
			t.Fatalf("go run gen_lanes.go -limbs %s: %v", limbs, err)
		}
		file := "lanes" + limbs + "_amd64.s"
		committed, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, committed) {
			t.Fatalf("%s differs from gen_lanes.go's output: run go generate ./internal/mathx/", file)
		}
	}
}

// TestToLimbsIsLimbAt: the one-pass word reader agrees with limbAt at every
// width the lanes take, for every limb count up to the widest kernel, and
// fromLimbs reads the words back.
func TestToLimbsIsLimbAt(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for words := 1; words <= 33; words++ {
		xw := make([]big.Word, words)
		for k := range xw {
			xw[k] = big.Word(rng.Uint64())
		}
		for limbs := 1; limbs <= laneMaxLimbs; limbs++ {
			got := make([]uint64, limbs)
			for j := range got {
				got[j] = 0xdead // overwritten, zeros included
			}
			toLimbs(got, xw)
			for j := range got {
				if want := limbAt(xw, limbBits*j); got[j] != want {
					t.Fatalf("%d words, %d limbs: limb %d = %#x, want %#x", words, limbs, j, got[j], want)
				}
			}
			back := make([]big.Word, words+1)
			fromLimbs(back, got)
			want := new(big.Int).SetBits(xw)
			want.And(want, new(big.Int).Sub(new(big.Int).Lsh(One, uint(limbBits*limbs)), One))
			if new(big.Int).SetBits(back).Cmp(want) != 0 {
				t.Fatalf("%d words, %d limbs: fromLimbs(toLimbs(x)) = %x, want %x", words, limbs, back, want)
			}
		}
	}
}

// TestLaneLoad: laneLoad fills the first limbs rows of a laneNum, lane l
// from the limbs at rows[l], eight separate slices or one slice read twice,
// and leaves the rows past limbs alone.
func TestLaneLoad(t *testing.T) {
	if !hasIFMA {
		t.Skip("no lane kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(40))
	vals := make([][]uint64, laneCount)
	var rows [laneCount]*uint64
	for l := range vals {
		vals[l] = make([]uint64, laneMaxLimbs)
		for j := range vals[l] {
			vals[l][j] = rng.Uint64() & limbMask
		}
		rows[l] = &vals[l][0]
	}
	rows[5] = rows[2]
	for _, limbs := range []int{10, 20, laneMaxLimbs} {
		z := make(laneNum, laneMaxLimbs)
		for j := range z {
			for l := range z[j] {
				z[j][l] = 0xdead
			}
		}
		laneLoad(&z[0], &rows, limbs)
		for j := range z {
			for l := range z[j] {
				want := uint64(0xdead)
				if j < limbs {
					want = vals[l][j]
					if l == 5 {
						want = vals[2][j]
					}
				}
				if z[j][l] != want {
					t.Fatalf("limbs=%d: row %d lane %d = %#x, want %#x", limbs, j, l, z[j][l], want)
				}
			}
		}
	}
}

// laneMulModel is the lane kernels' contract in Go, step for step as
// gen_lanes.go emits it: for an odd m of L = len(m) radix-2^52 limbs, 4m <
// R = 2^(52·L), and k0 = −m⁻¹ mod 2^52, each lane of z becomes (x·y + Q·m)/R,
// Q chosen a limb per round so that the low limb cancels, with x, y < 2m
// read limb by limb (each below 2^52), no final subtraction, and one carry
// pass that leaves every limb below 2^52. z may alias x or y. The kernels
// must match it bit for bit (TestLaneKernelsMatchModel).
func laneMulModel(z, x, y laneNum, m []uint64, k0 uint64) {
	L := len(m)
	t := make([]uint64, L+1)
	for l := range laneCount {
		clear(t)
		for i := range L {
			// t += x·y[i], then q·m with q = t[0]·k0 mod 2^52.
			for j := range L {
				lo, hi := mul52(x[j][l], y[i][l])
				t[j] += lo
				t[j+1] += hi
			}
			q, _ := mul52(t[0], k0)
			for j := range L {
				lo, hi := mul52(q, m[j])
				t[j] += lo
				t[j+1] += hi
			}
			// t[0]'s low 52 bits are zero: its carry moves up, t down a limb.
			t[1] += t[0] >> limbBits
			copy(t, t[1:])
			t[L] = 0
		}
		for j := range L - 1 {
			t[j+1] += t[j] >> limbBits
			t[j] &= limbMask
		}
		for j := range L {
			z[j][l] = t[j]
		}
	}
}

// mul52 returns the low and the high 52 bits of the product of a's and b's
// low 52 bits: what VPMADD52LUQ and VPMADD52HUQ add.
func mul52(a, b uint64) (lo, hi uint64) {
	h, l := bits.Mul64(a&limbMask, b&limbMask)
	return l & limbMask, h<<(64-limbBits) | l>>limbBits
}

// laneMulCase is one multiply of the model tests: eight pairs of operands
// below 2m, or every one 2m − 1 when corner is set, under the constants of
// the kernel of limbs limbs for m.
func laneMulCase(rng *rand.Rand, m *big.Int, limbs int, corner bool) (c *laneConsts, x, y laneNum, xs, ys []*big.Int) {
	c = newLaneConsts(m, len(m.Bits()), limbs)
	twoM := new(big.Int).Lsh(m, 1)
	x, y = make(laneNum, limbs), make(laneNum, limbs)
	xs, ys = make([]*big.Int, laneCount), make([]*big.Int, laneCount)
	for l := range laneCount {
		xs[l], ys[l] = new(big.Int).Rand(rng, twoM), new(big.Int).Rand(rng, twoM)
		if corner {
			xs[l].Sub(twoM, One)
			ys[l].Sub(twoM, One)
		}
		x.set(l, xs[l].Bits())
		y.set(l, ys[l].Bits())
	}
	return c, x, y, xs, ys
}

// laneModelModulus returns a random odd modulus of 2 to maxBits bits, or of
// exactly maxBits when top is set.
func laneModelModulus(rng *rand.Rand, maxBits int, top bool) *big.Int {
	bitLen := maxBits
	if !top {
		bitLen = 2 + rng.Intn(maxBits-1)
	}
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bitLen)))
	return m.SetBit(m, bitLen-1, 1).SetBit(m, 0, 1)
}

// laneWidths are the lane kernels: limbs per lane and the widest modulus.
var laneWidths = []struct{ limbs, maxBits int }{{10, 512}, {20, 1024}, {40, 2048}}

// TestLaneMulModel holds the Go model to the kernels' contract on every
// width: the result is congruent to x·y·R⁻¹, below 2m, with every limb below
// 2^52, for random odd moduli up to the width's top and operands up to
// 2m − 1, in place as well.
func TestLaneMulModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, w := range laneWidths {
		for i := range 12 {
			m := laneModelModulus(rng, w.maxBits, i < 2)
			c, x, y, xs, ys := laneMulCase(rng, m, w.limbs, i%2 == 0)
			bigR := new(big.Int).Lsh(One, uint(limbBits*w.limbs))
			inv := new(big.Int).ModInverse(bigR, m)
			twoM := new(big.Int).Lsh(m, 1)
			z := make(laneNum, w.limbs)
			laneMulModel(z, x, y, c.m[:w.limbs], c.k0)
			laneMulModel(x, x, y, c.m[:w.limbs], c.k0)
			for l := range laneCount {
				for j := range z {
					if z[j][l] > limbMask {
						t.Fatalf("%d limbs, m = %v: lane %d limb %d = %#x, not below 2^52", w.limbs, m, l, j, z[j][l])
					}
				}
				got := laneValue(z, l)
				want := new(big.Int).Mul(xs[l], ys[l])
				want.Mul(want, inv).Mod(want, m)
				if got.Cmp(twoM) >= 0 || new(big.Int).Mod(got, m).Cmp(want) != 0 {
					t.Fatalf("%d limbs, m = %v: lane %d: model(%v, %v) = %v, want ≡ %v and below 2m", w.limbs, m, l, xs[l], ys[l], got, want)
				}
				if inPlace := laneValue(x, l); inPlace.Cmp(got) != 0 {
					t.Fatalf("%d limbs: lane %d: in place %v, want %v", w.limbs, l, inPlace, got)
				}
			}
		}
	}
}

// TestLaneKernelsMatchModel pins laneMul10, laneMul20 and laneMul40 to the Go
// model bit for bit, on random odd moduli of each width's whole range, on
// the widest, and at x = y = 2m − 1, into a fresh operand and in place.
func TestLaneKernelsMatchModel(t *testing.T) {
	if !hasIFMA {
		t.Skip("no lane kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(18))
	for _, w := range laneWidths {
		for i := range 40 {
			m := laneModelModulus(rng, w.maxBits, i < 4)
			c, x, y, xs, ys := laneMulCase(rng, m, w.limbs, i%4 == 0)
			want, got := make(laneNum, w.limbs), make(laneNum, w.limbs)
			laneMulModel(want, x, y, c.m[:w.limbs], c.k0)
			c.mul(got, x, y)
			c.mul(x, x, y)
			for j := range want {
				if got[j] != want[j] || x[j] != want[j] {
					t.Fatalf("laneMul%d, m = %v, x = %v, y = %v: limb %d = %#x (in place %#x), model %#x", w.limbs, m, xs, ys, j, got[j], x[j], want[j])
				}
			}
		}
	}
}
