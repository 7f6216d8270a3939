package mathx

import (
	"math/big"
	"math/rand"
	"testing"
)

// naiveMultiExp is the big.Int.Exp oracle: Π bases[i]^{exps[i]} mod m one
// exponentiation at a time.
func naiveMultiExp(bases []*big.Int, exps []uint64, m *big.Int) *big.Int {
	acc := new(big.Int).Mod(One, m)
	e := new(big.Int)
	for i, b := range bases {
		e.SetUint64(exps[i])
		p := new(big.Int).Exp(b, e, m)
		acc.Mul(acc, p)
		acc.Mod(acc, m)
	}
	return acc
}

func randOperands(rng *rand.Rand, count, baseBits int, expMask uint64) ([]*big.Int, []uint64) {
	bases := make([]*big.Int, count)
	exps := make([]uint64, count)
	for i := range bases {
		b := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(baseBits)))
		bases[i] = b
		exps[i] = rng.Uint64() & expMask
	}
	return bases, exps
}

func TestMultiExpMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := new(big.Int).SetUint64(0xfffffffb_00000001) // any positive modulus works
	for _, count := range []int{1, 2, 7, 33, 100} {
		for _, mask := range []uint64{0, 1, 0xff, 0xffffffff, ^uint64(0)} {
			bases, exps := randOperands(rng, count, 80, mask)
			want := naiveMultiExp(bases, exps, m)
			for _, w := range []uint{0, 1, 3, 5, 8} {
				got, err := MultiExp(bases, exps, m, w)
				if err != nil {
					t.Fatalf("MultiExp(count=%d mask=%#x w=%d): %v", count, mask, w, err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("MultiExp(count=%d mask=%#x w=%d) = %v, want %v", count, mask, w, got, want)
				}
			}
		}
	}
}

func TestMultiExpParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := new(big.Int).SetString("c90fdaa22168c234c4c6628b80dc1cd1", 16)
	for _, count := range []int{1, 2, 3, 16, 257} {
		bases, exps := randOperands(rng, count, 120, ^uint64(0))
		want := naiveMultiExp(bases, exps, m)
		for _, workers := range []int{1, 2, 4, 9} {
			got, err := MultiExpParallel(bases, exps, m, 0, workers)
			if err != nil {
				t.Fatalf("MultiExpParallel(count=%d workers=%d): %v", count, workers, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("MultiExpParallel(count=%d workers=%d) = %v, want %v", count, workers, got, want)
			}
		}
	}
}

// TestMultiExpParallelFewRows asks for more workers than rows (2 rows of
// 64-bit exponents at window 2 = 32 windows): the worker count clamps to the
// rows.
func TestMultiExpParallelFewRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := new(big.Int).SetString("e95e4a5f737059dc60dfc7ad95b3d8139515620f", 16)
	bases, exps := randOperands(rng, 2, 100, ^uint64(0))
	want := naiveMultiExp(bases, exps, m)
	for _, workers := range []int{2, 5, 64} {
		got, err := MultiExpParallel(bases, exps, m, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("few-rows workers=%d = %v, want %v", workers, got, want)
		}
	}
}

func TestMultiExpEdgeCases(t *testing.T) {
	m := big.NewInt(97)

	// Empty operands: the empty product.
	got, err := MultiExp(nil, nil, m, 0)
	if err != nil || got.Cmp(One) != 0 {
		t.Errorf("empty product = %v, %v; want 1", got, err)
	}

	// All-zero exponents: also the empty product, at any worker count.
	bases := []*big.Int{big.NewInt(5), big.NewInt(7)}
	got, err = MultiExpParallel(bases, []uint64{0, 0}, m, 0, 4)
	if err != nil || got.Cmp(One) != 0 {
		t.Errorf("zero exponents = %v, %v; want 1", got, err)
	}

	// Modulus 1: everything is 0.
	got, err = MultiExp(bases, []uint64{3, 4}, big.NewInt(1), 0)
	if err != nil || got.Sign() != 0 {
		t.Errorf("mod 1 = %v, %v; want 0", got, err)
	}

	// Negative bases reduce like big.Int.Exp.
	neg := []*big.Int{big.NewInt(-6)}
	want := new(big.Int).Exp(neg[0], big.NewInt(13), m)
	got, err = MultiExp(neg, []uint64{13}, m, 3)
	if err != nil || got.Cmp(want) != 0 {
		t.Errorf("negative base = %v, %v; want %v", got, err, want)
	}
}

func TestMultiExpValidation(t *testing.T) {
	m := big.NewInt(97)
	if _, err := MultiExp([]*big.Int{One}, []uint64{1}, nil, 0); err == nil {
		t.Error("nil modulus should fail")
	}
	if _, err := MultiExp([]*big.Int{One}, []uint64{1}, big.NewInt(-5), 0); err == nil {
		t.Error("negative modulus should fail")
	}
	if _, err := MultiExp([]*big.Int{One}, []uint64{1, 2}, m, 0); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := MultiExp([]*big.Int{nil}, []uint64{1}, m, 0); err == nil {
		t.Error("nil base should fail")
	}
	if _, err := MultiExp([]*big.Int{One}, []uint64{1}, m, MaxMultiExpWindow+1); err == nil {
		t.Error("oversized window should fail")
	}
}

func TestPickMultiExpWindowMonotone(t *testing.T) {
	// Wider chunks should never pick a narrower window, and every pick must
	// be in range.
	prev := uint(0)
	for _, count := range []int{1, 16, 256, 4096, 65536} {
		w := PickMultiExpWindow(count, 32)
		if w < 1 || w > MaxMultiExpWindow {
			t.Fatalf("window %d out of range for count %d", w, count)
		}
		if w < prev {
			t.Errorf("window shrank from %d to %d at count %d", prev, w, count)
		}
		prev = w
	}
}

func BenchmarkMultiExp4096x32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m, _ := new(big.Int).SetString("e95e4a5f737059dc60dfc7ad95b3d8139515620f45434c1c8e84a01d4a3c62bb", 16)
	bases, exps := randOperands(rng, 4096, 256, 0xffffffff)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultiExp(bases, exps, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}
