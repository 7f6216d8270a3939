package mathx

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

// expModuli are the shapes Exp's dispatch tells apart: odd moduli of 8, 16
// and 32 words (the kernels, on a CPU that has them) at both ends of the
// range and with all-ones top words, whose sums carry into the accumulator's
// top words; a 24-word odd modulus and an even one, which always take
// big.Int.Exp.
func expModuli() map[string]*big.Int {
	top := new(big.Int).Lsh(One, 512)
	top16 := new(big.Int).Lsh(One, 1024)
	top32 := new(big.Int).Lsh(One, 2048)
	return map[string]*big.Int{
		"2^512-1":    new(big.Int).Sub(top, One),
		"2^512-569":  new(big.Int).Sub(top, big.NewInt(569)),
		"2^448+1":    new(big.Int).Add(new(big.Int).Lsh(One, 448), One),
		"2^1024-1":   new(big.Int).Sub(top16, One),
		"2^1024-105": new(big.Int).Sub(top16, big.NewInt(105)),
		"2^960+1":    new(big.Int).Add(new(big.Int).Lsh(One, 960), One),
		"2^1536-3":   new(big.Int).Sub(new(big.Int).Lsh(One, 1536), big.NewInt(3)),
		"2^2048-1":   new(big.Int).Sub(top32, One),
		"2^2048-159": new(big.Int).Sub(top32, big.NewInt(159)),
		"2^1984+1":   new(big.Int).Add(new(big.Int).Lsh(One, 1984), One),
		"even":       new(big.Int).Sub(top, big.NewInt(2)),
	}
}

// kernelModes runs f with the register kernels on (where the CPU has them)
// and forced off: Reducers built inside f take the mode.
func kernelModes(t *testing.T, f func(t *testing.T, on bool)) {
	for _, on := range []bool{true, false} {
		name := "kernel"
		if !on {
			name = "nokernel"
		}
		noKernel.Store(!on)
		t.Run(name, func(t *testing.T) { f(t, on) })
	}
	noKernel.Store(false)
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
	// r^N mod N² of a 512- and a 1024-bit key: a 16-word modulus and a
	// 512-bit exponent, a 32-word modulus and a 1024-bit exponent.
	rng := rand.New(rand.NewSource(31))
	for _, bitLen := range []int{512, 1024} {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bitLen)))
		n.SetBit(n, bitLen-1, 1).SetBit(n, 0, 1)
		f.Add(new(big.Int).Mul(n, n).Bytes(), new(big.Int).Rand(rng, n).Bytes(), n.Bytes())
	}
	// z^p mod p² of a 2048-bit key: a 32-word modulus, a 1024-bit exponent.
	p := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 1024))
	p.SetBit(p, 1023, 1).SetBit(p, 0, 1)
	p2 := new(big.Int).Mul(p, p)
	f.Add(p2.Bytes(), new(big.Int).Rand(rng, p2).Bytes(), p.Bytes())
	f.Fuzz(func(t *testing.T, mRaw, xRaw, eRaw []byte) {
		m := new(big.Int).SetBytes(mRaw)
		if m.Sign() == 0 || len(eRaw) > 128 {
			t.Skip()
		}
		// The kernels' shapes are rare among arbitrary bytes: also try the
		// odd 8-, 16- and 32-word moduli that share m's low 512, 1024 and
		// 2048 bits.
		mods := []*big.Int{m}
		for _, bitLen := range []int{512, 1024, 2048} {
			mk := new(big.Int).Mod(m, new(big.Int).Lsh(One, uint(bitLen)))
			mods = append(mods, mk.SetBit(mk, bitLen-1, 1).SetBit(mk, 0, 1))
		}
		x := new(big.Int).SetBytes(xRaw)
		e := new(big.Int).SetBytes(eRaw)
		for _, m := range mods {
			expCheck(t, m, x, e)
			expCheck(t, m, new(big.Int).Neg(x), e)
		}
	})
}

// TestReducerExpBranches calls both of Exp's branches directly, with the
// kernels on and forced off: the kernel (expKernel) where it applies, and must
// agree with big.Int.Exp there; nil where it does not, so that Exp falls
// through to big.Int.Exp.
func TestReducerExpBranches(t *testing.T) {
	if !hasADX {
		t.Log("no register kernel on this CPU: only big.Int.Exp is exercised")
	}
	kernelModes(t, func(t *testing.T, on bool) {
		rng := rand.New(rand.NewSource(30))
		for name, m := range expModuli() {
			r, err := NewReducer(m)
			if err != nil {
				t.Fatal(err)
			}
			words := len(m.Bits())
			kernel := on && hasADX && (words == 8 || words == 16 || words == 32) && m.Bit(0) == 1
			for i := 0; i < 50; i++ {
				x := new(big.Int).Rand(rng, new(big.Int).Lsh(m, 2))
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(rng.Intn(700))))
				want := new(big.Int).Exp(x, e, m)
				got := r.expKernel(new(big.Int), x, e)
				if (got != nil) != kernel {
					t.Fatalf("%s: kernel ran = %v, want %v", name, got != nil, kernel)
				}
				if got != nil && got.Cmp(want) != 0 {
					t.Fatalf("%s: expKernel(%v, %v) = %v, want %v", name, x, e, got, want)
				}
				if got := r.Exp(new(big.Int), x, e); got.Cmp(want) != 0 {
					t.Fatalf("%s: Exp(%v, %v) = %v, want %v", name, x, e, got, want)
				}
			}
			// A base ≡ 0 is the one input whose last conversion lands on m.
			expCheck(t, m, new(big.Int).Lsh(m, 3), big.NewInt(5))
			// Negative bases and exponents are big.Int.Exp's alone.
			if r.expKernel(new(big.Int), big.NewInt(-3), big.NewInt(5)) != nil ||
				r.expKernel(new(big.Int), big.NewInt(3), big.NewInt(-5)) != nil {
				t.Fatalf("%s: kernel took a negative operand", name)
			}
			expCheck(t, m, big.NewInt(-3), big.NewInt(5))
		}
	})
}

// TestReducerExpDoesNotAllocate: on every kernel, the only storage Exp
// touches is the destination's, and a destination that already has the
// modulus' words is reused.
func TestReducerExpDoesNotAllocate(t *testing.T) {
	if !hasADX {
		t.Skip("no register kernel on this CPU")
	}
	for _, name := range []string{"2^512-569", "2^1024-105", "2^2048-159"} {
		m := expModuli()[name]
		r, _ := NewReducer(m)
		x := new(big.Int).Sub(m, big.NewInt(3))
		e := new(big.Int).Rsh(m, 256)
		z := new(big.Int).Set(m)
		if n := testing.AllocsPerRun(20, func() { r.Exp(z, x, e) }); n != 0 {
			t.Fatalf("%s: Exp allocated %v times per call", name, n)
		}
	}
}

// TestMontGenerated: every committed montN_amd64.s is exactly gen_mont.go's
// output for that width.
func TestMontGenerated(t *testing.T) {
	for _, words := range []string{"8", "16", "32"} {
		out, err := exec.Command("go", "run", "gen_mont.go", "-words", words).Output()
		if err != nil {
			t.Fatalf("go run gen_mont.go -words %s: %v", words, err)
		}
		file := "mont" + words + "_amd64.s"
		committed, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, committed) {
			t.Fatalf("%s differs from gen_mont.go's output: run go generate ./internal/mathx/", file)
		}
	}
}

// BenchmarkReducerExp times Exp and big.Int.Exp at the shapes Paillier runs
// them at: z^p mod p² of a 512-bit key (an 8-word modulus, a 256-bit
// exponent) and of a 1024-bit key (a 16-word modulus, a 512-bit exponent),
// and the seal's and public encryption's r^N mod N² of a 512-bit key (a
// 16-word modulus, a 512-bit exponent) and of a 1024-bit key (a 32-word
// modulus, a 1024-bit exponent). p2xK is K z^p mod p² of a 512-bit key (K = 8
// is the batch FreshRandomizerCRT refills), rNxK K r^N mod N² of a 512-bit
// key and rN1024xK of a 1024-bit key (the batch of the seal and public
// encryption): one lane call (the ten-, twenty- or forty-limb lane kernel,
// where the CPU has it) against K Exps; ns/op is per K. The lanes always run
// all eight, so K = 1, 2, 3 are the short groups that place ExpEach's
// lanesPay.
func BenchmarkReducerExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct {
		name           string
		modBits, eBits int
	}{{"p2", 512, 256}, {"p2k1024", 1024, 512}, {"rN", 1024, 512}, {"rN1024", 2048, 1024}} {
		m, e := benchShape(rng, shape.modBits, shape.eBits)
		r, _ := NewReducer(m)
		x := new(big.Int).Rand(rng, m)
		z := new(big.Int)
		b.Run(shape.name+"/Exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Exp(z, x, e)
			}
		})
		b.Run(shape.name+"/big.Int.Exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				z.Exp(x, e, m)
			}
		})
	}
	for _, shape := range []struct {
		name           string
		modBits, eBits int
	}{{"p2", 512, 256}, {"rN", 1024, 512}, {"rN1024", 2048, 1024}} {
		m, e := benchShape(rng, shape.modBits, shape.eBits)
		r, _ := NewReducer(m)
		for _, k := range []int{1, 2, 3, laneCount} {
			xs, zs := make([]*big.Int, k), make([]*big.Int, k)
			for i := range xs {
				xs[i], zs[i] = new(big.Int).Rand(rng, m), new(big.Int)
			}
			name := fmt.Sprintf("%sx%d", shape.name, k)
			b.Run(name+"/lanes", func(b *testing.B) {
				if r.Lanes() == 1 {
					b.Skip("no lane kernel for this modulus on this CPU")
				}
				for i := 0; i < b.N; i++ {
					r.expLanes(zs, xs, e)
				}
			})
			b.Run(name+"/Exp", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, x := range xs {
						r.Exp(zs[j], x, e)
					}
				}
			})
		}
	}
}

// benchShape returns a random odd modulus of exactly modBits bits and an
// exponent of exactly eBits bits.
func benchShape(rng *rand.Rand, modBits, eBits int) (m, e *big.Int) {
	m = new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(modBits)))
	m.SetBit(m, 0, 1).SetBit(m, modBits-1, 1)
	e = new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(eBits)))
	return m, e.SetBit(e, eBits-1, 1)
}
