package mathx

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"sync"
	"testing"
)

// Differential coverage for the word-extracting digit scan: every window
// width the constructor accepts, against big.Int.Exp, over exponents chosen
// to straddle word boundaries in every alignment.

func fbTestModulus(t *testing.T) *big.Int {
	t.Helper()
	p, err := GeneratePrime(rand.Reader, 128)
	if err != nil {
		t.Fatalf("GeneratePrime: %v", err)
	}
	return p
}

func TestFixedBaseExpAllWindowsMatchExp(t *testing.T) {
	m := fbTestModulus(t)
	base := big.NewInt(0xA5A5A5)
	const maxBits = 200
	for w := uint(1); w <= 16; w++ {
		f, err := NewFixedBaseExp(base, m, maxBits, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for trial := 0; trial < 8; trial++ {
			e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, maxBits))
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Exp(e)
			if err != nil {
				t.Fatalf("w=%d Exp: %v", w, err)
			}
			want := new(big.Int).Exp(base, e, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("w=%d e=%v: got %v want %v", w, e, got, want)
			}
		}
	}
}

func TestFixedBaseExpWordBoundaryDigits(t *testing.T) {
	m := fbTestModulus(t)
	base := big.NewInt(3)
	const maxBits = 3 * bits.UintSize
	// Exponents with runs of ones centered on every word boundary, so a
	// digit extraction that drops or duplicates the carry bits across words
	// cannot pass.
	var exps []*big.Int
	for _, boundary := range []int{bits.UintSize, 2 * bits.UintSize} {
		for span := 1; span <= 17; span++ {
			e := new(big.Int)
			for b := boundary - span; b < boundary+span; b++ {
				if b >= 0 && b < maxBits {
					e.SetBit(e, b, 1)
				}
			}
			exps = append(exps, e)
		}
	}
	// And the all-ones exponent, where every digit is the full mask.
	allOnes := new(big.Int).Lsh(One, maxBits)
	allOnes.Sub(allOnes, One)
	exps = append(exps, allOnes)

	for w := uint(1); w <= 16; w++ {
		f, err := NewFixedBaseExp(base, m, maxBits, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for _, e := range exps {
			got, err := f.Exp(e)
			if err != nil {
				t.Fatalf("w=%d e=%x: %v", w, e, err)
			}
			want := new(big.Int).Exp(base, e, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("w=%d e=%x: got %v want %v", w, e, got, want)
			}
		}
	}
}

func TestFixedBaseExpZeroExponent(t *testing.T) {
	m := fbTestModulus(t)
	f, err := NewFixedBaseExp(big.NewInt(7), m, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Exp(new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(One) != 0 {
		t.Fatalf("x^0 = %v, want 1", got)
	}
}

func TestFixedBaseExpExactMaxBits(t *testing.T) {
	m := fbTestModulus(t)
	base := big.NewInt(11)
	for _, maxBits := range []int{64, 65, 100} {
		for _, w := range []uint{4, 6, 7} { // 7 never divides these maxBits
			f, err := NewFixedBaseExp(base, m, maxBits, w)
			if err != nil {
				t.Fatal(err)
			}
			// Exponent of exactly maxBits bits: top bit set, rest ones —
			// exercises the final (possibly partial) window row.
			e := new(big.Int).Lsh(One, uint(maxBits))
			e.Sub(e, One)
			got, err := f.Exp(e)
			if err != nil {
				t.Fatalf("maxBits=%d w=%d: %v", maxBits, w, err)
			}
			want := new(big.Int).Exp(base, e, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("maxBits=%d w=%d: got %v want %v", maxBits, w, got, want)
			}
			// One bit past the table must be rejected, not truncated.
			over := new(big.Int).Lsh(One, uint(maxBits))
			if _, err := f.Exp(over); err == nil {
				t.Fatalf("maxBits=%d w=%d: accepted %d-bit exponent", maxBits, w, maxBits+1)
			}
		}
	}
}

func TestFixedBaseExpBaseAboveModulus(t *testing.T) {
	m := big.NewInt(1009)
	base := new(big.Int).Add(new(big.Int).Mul(m, big.NewInt(5)), big.NewInt(123)) // ≡ 123 mod m
	f, err := NewFixedBaseExp(base, m, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(987654321)
	got, err := f.Exp(e)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(123), e, m)
	if got.Cmp(want) != 0 {
		t.Fatalf("base >= m: got %v want %v", got, want)
	}
}

// TestFixedBaseExpConcurrent drives one shared table from many goroutines;
// the table is read-only after construction, so this must be race-clean
// (run under -race via make check).
func TestFixedBaseExpConcurrent(t *testing.T) {
	m := fbTestModulus(t)
	base := big.NewInt(65537)
	const maxBits = 160
	f, err := NewFixedBaseExp(base, m, maxBits, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := big.NewInt(int64(g + 1))
			for i := 0; i < 50; i++ {
				e.Mul(e, big.NewInt(1000003))
				e.SetBit(e, i%maxBits, 1)
				ered := new(big.Int).Mod(e, new(big.Int).Lsh(One, maxBits))
				got, err := f.Exp(ered)
				if err != nil {
					errs <- err
					return
				}
				if want := new(big.Int).Exp(base, ered, m); got.Cmp(want) != 0 {
					t.Errorf("goroutine %d iter %d: mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFixedBaseExpAllocatesOnlyTheResult: the window steps are montMuls into
// one result buffer over one scratch buffer, so an exponentiation allocates
// those two and the returned header, and nothing per digit.
func TestFixedBaseExpAllocatesOnlyTheResult(t *testing.T) {
	m := new(big.Int).Lsh(One, 1024)
	m.Sub(m, big.NewInt(105))
	f, err := NewFixedBaseExp(big.NewInt(0xA5A5A5), m, 512, 6)
	if err != nil {
		t.Fatal(err)
	}
	e := new(big.Int).Lsh(One, 512)
	e.Sub(e, One) // every one of the 86 digits non-zero
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := f.Exp(e); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Errorf("Exp allocates %v times for 86 window steps, want at most 3", allocs)
	}
}
