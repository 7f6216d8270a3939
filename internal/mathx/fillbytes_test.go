package mathx

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// ctBytes is the ciphertext width of a 1024-bit Paillier key: N² is 2048 bits.
const ctBytes = 256

// fillOutcome is one encoder's answer for one buffer: the bytes it left, or
// that it panicked.
type fillOutcome struct {
	out      []byte
	panicked bool
}

func fillWith(fill func([]byte, *big.Int) []byte, width int, v *big.Int) (o fillOutcome) {
	buf := bytes.Repeat([]byte{0xa5}, width) // stale bytes the encoder must clear
	defer func() {
		if recover() != nil {
			o = fillOutcome{panicked: true}
		}
	}()
	return fillOutcome{out: fill(buf, v)}
}

// randBitLen returns a value of exactly n bits (0 for n = 0), negated when neg.
func randBitLen(rng *rand.Rand, n int, neg bool) *big.Int {
	if n == 0 {
		return new(big.Int)
	}
	v := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(n-1)))
	v.SetBit(v, n-1, 1)
	if neg {
		v.Neg(v)
	}
	return v
}

// TestFillBytesMatchesBig holds FillBytes to big.Int.FillBytes at every width
// from one byte to twice a 1024-bit key's ciphertext width plus one — so
// widths that are and are not a multiple of the word size — for zero, values
// of every length class below the width, values that exactly fill it (all
// ones among them), and values one bit too long, which both must refuse by
// panicking.
func TestFillBytesMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	bigFill := func(buf []byte, v *big.Int) []byte { return v.FillBytes(buf) }
	for width := 1; width <= 2*ctBytes+1; width++ {
		full := 8 * width
		allOnes := new(big.Int).Sub(new(big.Int).Lsh(One, uint(full)), One)
		values := []*big.Int{new(big.Int), allOnes, randBitLen(rng, full+1, false), randBitLen(rng, full+64, false)}
		for _, n := range []int{1, 7, 8, 9, full / 2, full - 8, full - 7, full - 1, full, 1 + rng.Intn(full)} {
			if n >= 1 && n <= full {
				values = append(values, randBitLen(rng, n, false), randBitLen(rng, n, true))
			}
		}
		for _, v := range values {
			got, want := fillWith(FillBytes, width, v), fillWith(bigFill, width, v)
			if got.panicked != want.panicked || !bytes.Equal(got.out, want.out) {
				t.Fatalf("width %d, %d-bit value: FillBytes = %+v, big.Int.FillBytes = %+v", width, v.BitLen(), got, want)
			}
		}
	}
}

func BenchmarkFillBytes(b *testing.B) {
	v := randBitLen(rand.New(rand.NewSource(1)), 8*ctBytes-3, false)
	buf := make([]byte, ctBytes)
	b.Run("mathx", func(b *testing.B) {
		for range b.N {
			FillBytes(buf, v)
		}
	})
	b.Run("big", func(b *testing.B) {
		for range b.N {
			v.FillBytes(buf)
		}
	})
}
