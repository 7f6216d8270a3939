package mathx

import (
	"bytes"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

// expModuli are the shapes Exp's dispatch tells apart: 8-word odd moduli
// (the kernel, on a CPU that has it) at both ends of the range and with an
// all-ones top word, whose sums carry into the tenth accumulator word; a
// 16-word odd modulus and an even one, which always take big.Int.Exp.
func expModuli() map[string]*big.Int {
	top := new(big.Int).Lsh(One, 512)
	return map[string]*big.Int{
		"2^512-1":    new(big.Int).Sub(top, One),
		"2^512-569":  new(big.Int).Sub(top, big.NewInt(569)),
		"2^448+1":    new(big.Int).Add(new(big.Int).Lsh(One, 448), One),
		"2^1024-105": new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105)),
		"even":       new(big.Int).Sub(top, big.NewInt(2)),
	}
}

// expCheck compares Exp against big.Int.Exp for (m, x, e), with a fresh
// destination and with the destination aliasing x.
func expCheck(t *testing.T, m, x, e *big.Int) {
	t.Helper()
	r, err := NewReducer(m)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(x, e, m)
	if got := r.Exp(new(big.Int), x, e); got.Cmp(want) != 0 {
		t.Fatalf("Exp(%v, %v) mod %v = %v, want %v", x, e, m, got, want)
	}
	z := new(big.Int).Set(x)
	if got := r.Exp(z, z, e); got != z || got.Cmp(want) != 0 {
		t.Fatalf("aliased Exp(%v, %v) mod %v = %v, want %v", x, e, m, got, want)
	}
}

// FuzzReducerExp: Exp must return exactly what big.Int.Exp returns, for any
// modulus, base and non-negative exponent — the differential gate of the
// register-resident kernel, whose oracle is the path it replaces.
func FuzzReducerExp(f *testing.F) {
	e512 := new(big.Int).Sub(new(big.Int).Lsh(One, 512), big.NewInt(12345)).Bytes()
	for _, m := range expModuli() {
		mMinus1 := new(big.Int).Sub(m, One).Bytes()
		above := new(big.Int).Add(m, big.NewInt(7)).Bytes()
		for _, x := range [][]byte{{0}, {1}, mMinus1, above} {
			for _, e := range [][]byte{{0}, {1}, e512} {
				f.Add(m.Bytes(), x, e)
			}
		}
	}
	f.Fuzz(func(t *testing.T, mRaw, xRaw, eRaw []byte) {
		m := new(big.Int).SetBytes(mRaw)
		if m.Sign() == 0 || len(eRaw) > 128 {
			t.Skip()
		}
		// The kernel's shape is rare among arbitrary bytes: also try the
		// odd 8-word modulus that shares m's low 512 bits.
		m8 := new(big.Int).Mod(m, new(big.Int).Lsh(One, 512))
		m8.SetBit(m8, 511, 1).SetBit(m8, 0, 1)
		mods := []*big.Int{m, m8}
		x := new(big.Int).SetBytes(xRaw)
		e := new(big.Int).SetBytes(eRaw)
		for _, m := range mods {
			expCheck(t, m, x, e)
			expCheck(t, m, new(big.Int).Neg(x), e)
		}
	})
}

// TestReducerExpBranches calls both of Exp's branches directly: the kernel
// (exp8) where it applies, and must agree with big.Int.Exp there; nil where
// it does not, so that Exp falls through to big.Int.Exp.
func TestReducerExpBranches(t *testing.T) {
	if !hasMont8 {
		t.Log("no register-resident kernel on this CPU: only big.Int.Exp is exercised")
	}
	rng := rand.New(rand.NewSource(30))
	for name, m := range expModuli() {
		r, err := NewReducer(m)
		if err != nil {
			t.Fatal(err)
		}
		kernel := hasMont8 && len(m.Bits()) == 8 && m.Bit(0) == 1
		for i := 0; i < 50; i++ {
			x := new(big.Int).Rand(rng, new(big.Int).Lsh(m, 2))
			e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(rng.Intn(700))))
			want := new(big.Int).Exp(x, e, m)
			got := r.exp8(new(big.Int), x, e)
			if (got != nil) != kernel {
				t.Fatalf("%s: kernel ran = %v, want %v", name, got != nil, kernel)
			}
			if got != nil && got.Cmp(want) != 0 {
				t.Fatalf("%s: exp8(%v, %v) = %v, want %v", name, x, e, got, want)
			}
			if got := r.Exp(new(big.Int), x, e); got.Cmp(want) != 0 {
				t.Fatalf("%s: Exp(%v, %v) = %v, want %v", name, x, e, got, want)
			}
		}
		// Negative bases and exponents are big.Int.Exp's alone.
		if r.exp8(new(big.Int), big.NewInt(-3), big.NewInt(5)) != nil ||
			r.exp8(new(big.Int), big.NewInt(3), big.NewInt(-5)) != nil {
			t.Fatalf("%s: kernel took a negative operand", name)
		}
		expCheck(t, m, big.NewInt(-3), big.NewInt(5))
	}
}

// TestReducerExpDoesNotAllocate: on the kernel, the only storage Exp touches
// is the destination's, and a destination that already has 8 words is reused.
func TestReducerExpDoesNotAllocate(t *testing.T) {
	if !hasMont8 {
		t.Skip("no register-resident kernel on this CPU")
	}
	m := expModuli()["2^512-569"]
	r, _ := NewReducer(m)
	x := new(big.Int).Sub(m, big.NewInt(3))
	e := new(big.Int).Rsh(m, 256)
	z := new(big.Int).Set(m)
	if n := testing.AllocsPerRun(20, func() { r.Exp(z, x, e) }); n != 0 {
		t.Fatalf("Exp allocated %v times per call", n)
	}
}

// TestMont8Generated: mont8_amd64.s is exactly gen_mont8.go's output.
func TestMont8Generated(t *testing.T) {
	out, err := exec.Command("go", "run", "gen_mont8.go").Output()
	if err != nil {
		t.Fatalf("go run gen_mont8.go: %v", err)
	}
	committed, err := os.ReadFile("mont8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, committed) {
		t.Fatal("mont8_amd64.s differs from gen_mont8.go's output: run go generate ./internal/mathx/")
	}
}

// BenchmarkReducerExp times z^p mod p² at the 512-bit key's shape — an 8-word
// modulus, a 256-bit exponent — on Exp and on big.Int.Exp.
func BenchmarkReducerExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 512))
	m.SetBit(m, 0, 1).SetBit(m, 511, 1)
	r, _ := NewReducer(m)
	x := new(big.Int).Rand(rng, m)
	e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 256))
	z := new(big.Int)
	b.Run("Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Exp(z, x, e)
		}
	})
	b.Run("big.Int.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.Exp(x, e, m)
		}
	})
}
