package mathx

import (
	"errors"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// FuzzMontMulEquivalence: for odd moduli of 1–70 words (2^k ± 1 and 1
// included) and operands anywhere in [0, R) — 0, 1, m−1, residues, and
// unreduced values in [m, R) — montMul(x, y)·R ≡ x·y (mod m) by Mul + Mod,
// the result stays n words, and aliasing the destination changes nothing.
// At 8, 16 and 32 words, where montMul is one call into a register kernel,
// every result must also equal montMulVVW's word for word, and the fold on
// the addMulVVW path is checked the same way with the kernels forced off.
func FuzzMontMulEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 63, 2, 4, 4, 5})  // 2^512 − 1
	f.Add([]byte{15, 63, 2, 3, 4, 6}) // 2^1024 − 1, x unreduced
	f.Add([]byte{15, 20, 4, 3, 3, 7}) // a 16-word modulus, both unreduced
	f.Add([]byte{15, 63, 5, 4, 2, 8}) // R − 1 times m − 1
	f.Add([]byte{15, 63, 1, 2, 3, 1})
	f.Add([]byte{31, 7, 2, 4, 4, 9})  // a 32-word modulus, on montMul32
	f.Add([]byte{31, 63, 2, 4, 4, 5}) // 2^2048 − 1
	f.Add([]byte{31, 63, 5, 4, 2, 8}) // R − 1 times m − 1 at 32 words
	f.Add([]byte{69, 1, 0, 3, 2, 200})
	f.Add([]byte{1, 0, 5, 1, 4, 3})
	f.Add([]byte{39, 30, 3, 4, 5, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		seed := int64(0)
		for _, b := range data[5:] {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		m := fuzzModulus(rng, data[0], data[1], data[2])
		m.SetBit(m, 0, 1) // 2^k becomes 2^k + 1, 2 becomes 3
		for _, on := range []bool{true, false} {
			noKernel.Store(!on)
			red, err := NewReducer(m)
			noKernel.Store(false)
			if err != nil {
				t.Fatal(err)
			}
			montMulEquivalence(t, rng, data, m, red)
		}
	})
}

// montMulEquivalence is FuzzMontMulEquivalence's check on one Reducer.
func montMulEquivalence(t *testing.T, rng *rand.Rand, data []byte, m *big.Int, red *Reducer) {
	n := red.Words()
	bigR := new(big.Int).Lsh(One, uint(n*bits.UintSize))
	operand := func(kind byte) *big.Int {
		switch kind % 6 {
		case 0:
			return new(big.Int)
		case 1:
			return big.NewInt(1)
		case 2:
			return new(big.Int).Sub(m, One)
		case 3: // unreduced: anywhere in [m, R)
			x := new(big.Int).Sub(bigR, m)
			return x.Rand(rng, x).Add(x, m)
		case 4:
			return new(big.Int).Sub(bigR, One)
		default:
			return new(big.Int).Rand(rng, m)
		}
	}
	x, y := operand(data[3]), operand(data[4])
	limbs := func(v *big.Int) []big.Word { // any v in [0, R)
		l := make([]big.Word, n)
		copy(l, v.Bits())
		return l
	}
	scratch := make([]big.Word, 2*n)
	for _, alias := range []string{"none", "x", "y", "square"} {
		xl, yl, z := limbs(x), limbs(y), make([]big.Word, n)
		bx, by := x, y
		switch alias {
		case "x":
			z = xl
		case "y":
			z = yl
		case "square":
			z, yl, by = xl, xl, x
		}
		want := mulModRef(bx, by, m)
		vvw := make([]big.Word, n)
		red.montMulVVW(vvw, xl, yl, scratch)
		red.montMul(z, xl, yl, scratch)
		got := new(big.Int).SetBits(append([]big.Word(nil), z...))
		if back := mulModRef(got, bigR, m); back.Cmp(want) != 0 {
			t.Fatalf("alias=%s m=%x x=%x y=%x: montMul = %x, times R = %x, want %x", alias, m, x, y, got, back, want)
		}
		if !slices.Equal(z, vvw) {
			t.Fatalf("alias=%s m=%x x=%x y=%x kernel=%d: montMul = %x, montMulVVW = %x", alias, m, x, y, red.kw, z, vvw)
		}
	}
}

// TestMultiExpAccExponentSumCarries folds rows whose exponents sum past
// 2^64, then past 2^65: the factor Results puts back is R^Σexp for the full
// 128-bit sum.
func TestMultiExpAccExponentSumCarries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, _ := new(big.Int).SetString("e95e4a5f737059dc60dfc7ad95b3d8139515620f", 16)
	bases, exps := randOperands(rng, 5, 200, ^uint64(0))
	exps[0], exps[1], exps[2] = ^uint64(0), 1, 1<<63
	acc := newMultiExpAcc(m, 5)
	for i := range bases {
		add(acc, bases[i], exps[i])
		if i == 0 && acc.expHi != 0 || i == 1 && (acc.expHi != 1 || acc.expLo != 0) {
			t.Fatalf("after row %d: Σexp = %d·2^64 + %d", i, acc.expHi, acc.expLo)
		}
		if got, want := result(acc), naiveMultiExp(bases[:i+1], exps[:i+1], m); got.Cmp(want) != 0 {
			t.Fatalf("after %d rows (Σexp = %d·2^64 + %d): %v, want %v", i+1, acc.expHi, acc.expLo, got, want)
		}
	}
	if acc.expHi < 2 {
		t.Errorf("Σexp = %d·2^64 + %d never passed 2^65", acc.expHi, acc.expLo)
	}
}

// TestMultiExpRejectsEvenModulus: Montgomery multiplication needs an odd
// modulus, and every entry point of the bucket fold says so with
// ErrBadModulus rather than folding wrongly. The single-product kernel still
// serves an even modulus (FuzzReducerEquivalence).
func TestMultiExpRejectsEvenModulus(t *testing.T) {
	bases, exps := []*big.Int{big.NewInt(5)}, []uint64{3}
	for _, m := range []*big.Int{big.NewInt(2), big.NewInt(96), new(big.Int).Lsh(One, 200)} {
		if _, err := NewMultiExpAcc(m, 10); !errors.Is(err, ErrBadModulus) {
			t.Errorf("NewMultiExpAcc(%v): err = %v, want ErrBadModulus", m, err)
		}
		red, err := NewReducer(m)
		if err != nil {
			t.Fatalf("NewReducer(%v): %v", m, err)
		}
		if _, err := red.NewMultiExpAcc(10); !errors.Is(err, ErrBadModulus) {
			t.Errorf("Reducer(%v).NewMultiExpAcc: err = %v, want ErrBadModulus", m, err)
		}
		if _, err := MultiExp(bases, exps, m, 0); !errors.Is(err, ErrBadModulus) {
			t.Errorf("MultiExp mod %v: err = %v, want ErrBadModulus", m, err)
		}
		if _, err := MultiExpParallel(bases, exps, m, 3, 2); !errors.Is(err, ErrBadModulus) {
			t.Errorf("MultiExpParallel mod %v: err = %v, want ErrBadModulus", m, err)
		}
	}
}

// TestMultiExpAccAddCountsOneMulPerOccupiedDigit: a row costs one
// multiplication per non-zero digit that lands in an occupied bucket and
// nothing else — no conversion of the base on the way in. Split by window
// over any number of lanes, the lanes' counts add up to the one-lane count
// row by row, and so do those of Results.
func TestMultiExpAccAddCountsOneMulPerOccupiedDigit(t *testing.T) {
	m := new(big.Int).Lsh(One, 1024)
	m.Sub(m, big.NewInt(105))
	base := new(big.Int).Rsh(m, 1)
	rows := []struct {
		exp  uint64
		muls int // the counter after the row
	}{
		{0x0f00_1203, 0},  // digits 3, 2, 1, f into empty buckets: copied in
		{0x0f00_1203, 4},  // the same four buckets, now occupied
		{0, 4},            // free
		{0x5, 4},          // digit 5 of window 0 is empty
		{0x13, 5},         // digit 3 of window 0 is occupied, digit 1 of window 1 is not
		{^uint64(0), 6},   // sixteen digits f, one bucket (window 6) occupied
		{^uint64(0), 22},  // all sixteen occupied
		{0x0f00_1203, 26}, // still four
	}
	var resultMuls int
	for _, lanes := range []int{1, 2, 3, 4, 7} {
		acc := newMultiExpAcc(m, 4)
		for _, row := range rows {
			addRows(acc, []*big.Int{base}, []uint64{row.exp}, lanes)
			if got := acc.mulCount(); got != row.muls {
				t.Fatalf("lanes=%d: after exp %#x: %d multiplications, want %d", lanes, row.exp, got, row.muls)
			}
		}
		before := acc.mulCount()
		Results([]*MultiExpAcc{acc}, lanes)
		if got := acc.mulCount() - before; lanes == 1 {
			resultMuls = got
		} else if got != resultMuls {
			t.Errorf("lanes=%d: Results took %d multiplications, one lane %d", lanes, got, resultMuls)
		}
	}
}
