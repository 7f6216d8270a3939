package mathx

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// refAddMulVVW is z += x·y over len(z) words from math/bits alone.
func refAddMulVVW(z, x []big.Word, y big.Word) big.Word {
	var c uint
	for i := range z {
		hi, lo := bits.Mul(uint(x[i]), uint(y))
		lo, cc := bits.Add(lo, uint(z[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, c, 0)
		z[i], c = big.Word(lo), hi+cc
	}
	return big.Word(c)
}

// refSubVV is z = x − y over len(z) words from math/bits alone.
func refSubVV(z, x, y []big.Word) big.Word {
	var b uint
	for i := range z {
		var d uint
		d, b = bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
	}
	return big.Word(b)
}

// TestLinknamedArith pins the two primitives borrowed from math/big against
// a math/bits reference at every length from 0 to 70 words — past the
// assembly's unrolled blocks and their tails — on random operands and on
// all-ones operands, which carry or borrow out of every word. A toolchain
// that changes what they compute fails here, not in a statistic.
func TestLinknamedArith(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const ones = ^big.Word(0)
	fill := func(v []big.Word, allOnes bool) {
		for i := range v {
			v[i] = ones
			if !allOnes {
				v[i] = big.Word(rng.Uint64())
			}
		}
	}
	equal := func(a, b []big.Word) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	sawCarry, sawBorrow := false, false
	for n := 0; n <= 70; n++ {
		for _, allOnes := range []bool{false, true} {
			x, y, z := make([]big.Word, n), make([]big.Word, n), make([]big.Word, n)
			fill(x, allOnes)
			fill(y, allOnes)
			fill(z, allOnes)
			k := ones
			if !allOnes {
				k = big.Word(rng.Uint64())
			}

			got, want := append([]big.Word(nil), z...), append([]big.Word(nil), z...)
			cGot, cWant := addMulVVW(got, x, k), refAddMulVVW(want, x, k)
			if cGot != cWant || !equal(got, want) {
				t.Fatalf("addMulVVW n=%d ones=%v: carry %#x words %x, want carry %#x words %x", n, allOnes, cGot, got, cWant, want)
			}
			sawCarry = sawCarry || cGot != 0

			// x − y with y > x borrows out; all-ones minus all-ones does not.
			if allOnes && n > 0 {
				x[n-1] = 0
			}
			bGot, bWant := subVV(got, x, y), refSubVV(want, x, y)
			if bGot != bWant || !equal(got, want) {
				t.Fatalf("subVV n=%d ones=%v: borrow %d words %x, want borrow %d words %x", n, allOnes, bGot, got, bWant, want)
			}
			sawBorrow = sawBorrow || bGot != 0
		}
	}
	if !sawCarry || !sawBorrow {
		t.Errorf("operands never carried out (%v) or borrowed out (%v)", sawCarry, sawBorrow)
	}
}
