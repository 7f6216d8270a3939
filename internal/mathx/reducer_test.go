package mathx

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// newMultiExpAcc opens an accumulator of a fixed window width mod m > 0.
func newMultiExpAcc(m *big.Int, w uint) *MultiExpAcc {
	red, err := NewReducer(m)
	if err != nil {
		panic(err)
	}
	return red.newAcc(w)
}

// chunkLimbs lays bases out as AddChunk takes them, reduced mod the
// accumulator's modulus.
func chunkLimbs(acc *MultiExpAcc, bases []*big.Int) []big.Word {
	n := acc.red.n
	limbs := make([]big.Word, len(bases)*n)
	for i, b := range bases {
		acc.red.Limbs(limbs[i*n:(i+1)*n], new(big.Int).Mod(b, acc.red.m))
	}
	return limbs
}

// addRows folds rows into acc as one chunk on the given number of lanes.
func addRows(acc *MultiExpAcc, bases []*big.Int, exps []uint64, lanes int) {
	AddChunk([]*MultiExpAcc{acc}, chunkLimbs(acc, bases), [][]uint64{exps}, lanes)
}

// add folds one row on one lane.
func add(acc *MultiExpAcc, base *big.Int, exp uint64) {
	addRows(acc, []*big.Int{base}, []uint64{exp}, 1)
}

// result is acc's product on one lane.
func result(acc *MultiExpAcc) *big.Int {
	return Results([]*MultiExpAcc{acc}, 1)[0]
}

// mulCount is the multiplications acc executed, summed over its lanes.
func (a *MultiExpAcc) mulCount() int {
	n := 0
	for _, l := range a.lanes {
		n += l.muls
	}
	return n
}

func mulModRef(x, y, m *big.Int) *big.Int {
	t := new(big.Int).Mul(x, y)
	return t.Mod(t, m)
}

func TestNewReducerRejectsBadModulus(t *testing.T) {
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7)} {
		if _, err := NewReducer(m); err != ErrBadModulus {
			t.Errorf("NewReducer(%v): err = %v, want ErrBadModulus", m, err)
		}
	}
}

// fuzzModulus builds a modulus of 1–70 words from three input bytes: any bit
// length (so the top word is rarely full), and the shapes that stress a
// reciprocal — powers of two and their neighbours, even moduli.
func fuzzModulus(rng *rand.Rand, size, sub, shape byte) *big.Int {
	words := 1 + int(size)%70
	bitLen := uint((words-1)*bits.UintSize + 1 + int(sub)%bits.UintSize)
	pow := new(big.Int).Lsh(One, bitLen-1)
	m := new(big.Int)
	switch shape % 6 {
	case 0:
		m.Set(pow) // 2^k, 1 included: µ is one word wider than usual
	case 1:
		m.Add(pow, One)
	case 2:
		m.Sub(pow.Lsh(pow, 1), One) // 2^k − 1, every bit of every word set
	case 3:
		m.Rand(rng, pow).Add(m, pow).SetBit(m, 0, 0) // even
	default:
		m.Rand(rng, pow).Add(m, pow).SetBit(m, 0, 1)
	}
	if m.Sign() == 0 {
		m.Set(One)
	}
	return m
}

// fuzzOperand picks 0, 1, m−1, a random residue, or an operand the kernel
// must not take the division-free path on.
func fuzzOperand(rng *rand.Rand, kind byte, m *big.Int) *big.Int {
	switch kind % 8 {
	case 0:
		return new(big.Int)
	case 1:
		return big.NewInt(1)
	case 2:
		return new(big.Int).Sub(m, One)
	case 3: // unreduced, and wide enough that the product leaves 2n words
		x := new(big.Int).Lsh(m, uint(len(m.Bits())*bits.UintSize))
		return x.Add(x, new(big.Int).Rand(rng, m))
	case 4: // unreduced by a little: the product may still fit
		return new(big.Int).Add(m, new(big.Int).Rand(rng, m))
	case 5:
		return new(big.Int).Neg(new(big.Int).Rand(rng, m))
	default:
		return new(big.Int).Rand(rng, m)
	}
}

// FuzzReducerEquivalence: Reducer.Mul equals Mod(Mul(x, y), m) for every
// modulus shape and every operand, reduced or not, whatever the destination
// aliases, with one scratch reused across moduli of every size.
func FuzzReducerEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{15, 63, 4, 2, 2, 1})
	f.Add([]byte{31, 7, 2, 6, 3, 9})
	f.Add([]byte{69, 1, 1, 3, 4, 200})
	f.Add([]byte{1, 0, 0, 4, 6, 3})
	f.Add([]byte{7, 30, 3, 5, 2, 77})
	var s Scratch
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
		red, err := NewReducer(m)
		if err != nil {
			t.Fatal(err)
		}
		x, y := fuzzOperand(rng, data[3], m), fuzzOperand(rng, data[4], m)
		// The destination fresh, aliasing x, aliasing y, and x squared in
		// place; aliased calls overwrite an operand, so each works on copies.
		for _, alias := range []string{"none", "x", "y", "square"} {
			cx, cy, z := new(big.Int).Set(x), new(big.Int).Set(y), new(big.Int)
			switch alias {
			case "x":
				z = cx
			case "y":
				z = cy
			case "square":
				z, cy = cx, cx
			}
			want := mulModRef(cx, cy, m)
			if got := red.Mul(z, cx, cy, &s); got != z || got.Cmp(want) != 0 {
				t.Fatalf("alias=%s m=%x x=%x y=%x: got %x, want %x", alias, m, x, y, got, want)
			}
		}
	})
}

// barrettShortfall recomputes the kernel's quotient estimate with plain
// shifts and returns how far below ⌊t/m⌋ it lands.
func barrettShortfall(t, m *big.Int) int64 {
	n := uint(len(m.Bits()))
	const w = bits.UintSize
	mu := new(big.Int).Lsh(One, 2*n*w)
	mu.Quo(mu, m)
	q := new(big.Int).Rsh(t, w*(n-1))
	q.Mul(q, mu).Rsh(q, w*(n+1))
	return q.Sub(new(big.Int).Quo(t, m), q).Int64()
}

// TestReducerTwoCorrections pins the bound the kernel's two unrolled
// subtractions rest on. The estimate loses up to one unit to the words
// dropped from t (worst for a modulus just above a power of the radix) and
// up to one to µ's rounding (worst for t near b^(2n)), so the operands that
// need both corrections are a small modulus against a product filling all 2n
// words. Reduced operands never get there — their product is below m² — but
// the division-free path admits any product that fits, and must be exact on
// all of them.
func TestReducerTwoCorrections(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s Scratch
	for _, n := range []uint{2, 3, 16, 32, 64} {
		low := new(big.Int).Lsh(One, bits.UintSize*(n-1))
		top := new(big.Int).Lsh(One, 2*bits.UintSize*n)
		eighth := new(big.Int).Rsh(top, 3)
		worst := 0
		for i := 0; i < 400; i++ {
			m := new(big.Int).Rand(rng, low)
			m.Add(m, low) // [b^(n−1), 2·b^(n−1))
			x := new(big.Int).Rand(rng, eighth)
			x.Sub(top, x).Sub(x, One) // the top eighth of [0, b^(2n))
			short := barrettShortfall(x, m)
			if short < 0 || short > 2 {
				t.Fatalf("n=%d: estimate off by %d (m=%x t=%x)", n, short, m, x)
			}
			if short == 2 {
				worst++
			}
			red, err := NewReducer(m)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := red.Mul(new(big.Int), x, One, &s), new(big.Int).Mod(x, m); got.Cmp(want) != 0 {
				t.Fatalf("n=%d shortfall=%d: got %x, want %x (m=%x t=%x)", n, short, got, want, m, x)
			}
		}
		if worst == 0 {
			t.Errorf("n=%d: no operand needed both corrections; the table no longer covers the worst case", n)
		}
	}
}

// TestReducerMulDoesNotAllocate: with the scratch and the destination grown,
// a reduced multiplication allocates nothing — in particular the two Barrett
// products do not share a buffer.
func TestReducerMulDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{1, 16, 32, 64} {
		m := new(big.Int).Lsh(One, uint(words*bits.UintSize))
		m.Sub(m, big.NewInt(59))
		red, err := NewReducer(m)
		if err != nil {
			t.Fatal(err)
		}
		x, y, z := new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m), new(big.Int)
		var s Scratch
		red.Mul(z, x, y, &s)
		if allocs := testing.AllocsPerRun(100, func() { red.Mul(z, z, y, &s) }); allocs != 0 {
			t.Errorf("%d words: Mul allocates %v times, want 0", words, allocs)
		}
	}
}

// BenchmarkModMul is the kernel table of EXPERIMENTS.md: one modular
// multiplication of reduced operands by big.Int.Mul + QuoRem (the kernel this
// package used before the Reducer), by Reducer.Mul (Barrett, the single-product
// kernel), by Reducer.montMulVVW (Montgomery, the chain kernel composed from
// addMulVVW) and, at 8, 16 and 32 words on a CPU that has it, by the register
// kernel montMul runs on there (montMul8, montMul16, montMul32; the 32-word
// cell is a 1024-bit key's N²) and, at 8, 16 and 32 words on a CPU with
// AVX512-IFMA, by the lane kernel of that width (laneMul10, laneMul20,
// laneMul40), eight products per call. Sequential cells swing by 2× on a
// shared host, so the kernels run round-robin, b.N rounds of 200 dependent
// calls each, and every kernel reports the minimum and the first quartile of
// its rounds, in ns per multiplication: a lane call's time over eight.
// Run with a fixed round count: -benchtime 400x.
func BenchmarkModMul(b *testing.B) {
	const chain = 200
	rng := rand.New(rand.NewSource(8))
	for _, words := range []int{8, 16, 32, 64} {
		m := new(big.Int).Lsh(One, uint(words*64))
		m.Rand(rng, m).SetBit(m, words*64-1, 1).SetBit(m, 0, 1)
		x, y := new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m)
		red, _ := NewReducer(m)
		var t, q, r big.Int
		var s Scratch
		z := new(big.Int)
		zl, yl, tl := red.Limbs(nil, x), red.Limbs(nil, y), make([]big.Word, 2*red.Words())
		type kernel struct {
			name     string
			mul      func()
			products int // per call
		}
		kernels := []kernel{
			{"MulQuoRem", func() {
				t.Mul(z, y)
				q.QuoRem(&t, m, &r)
				z.Set(&r)
			}, 1},
			{"Barrett", func() { red.Mul(z, z, y, &s) }, 1},
			{"Montgomery", func() { red.montMulVVW(zl, zl, yl, tl) }, 1},
		}
		if red.kw != 0 {
			kernels = append(kernels, kernel{"Kernel", func() { red.kmul(&zl[0], &zl[0], &yl[0]) }, 1})
		}
		if red.laneLimbs != 0 {
			c := red.lanes()
			lz := alignedRows(make([]laneRow, c.limbs+1), c.limbs)
			ly := alignedRows(make([]laneRow, c.limbs+1), c.limbs)
			for l := range laneCount {
				lz.set(l, x.Bits())
				ly.set(l, y.Bits())
			}
			kernels = append(kernels, kernel{"Lanes", func() { c.mul(lz, lz, ly) }, laneCount})
		}
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			rounds := make([][]float64, len(kernels))
			for i := 0; i < b.N; i++ {
				for k, kern := range kernels {
					z.Set(x)
					start := time.Now()
					for j := 0; j < chain; j++ {
						kern.mul()
					}
					rounds[k] = append(rounds[k], float64(time.Since(start).Nanoseconds())/float64(chain*kern.products))
				}
			}
			for k, kern := range kernels {
				sort.Float64s(rounds[k])
				b.ReportMetric(rounds[k][0], kern.name+"-min-ns")
				b.ReportMetric(rounds[k][len(rounds[k])/4], kern.name+"-q1-ns")
			}
		})
	}
}
