package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"privstats/internal/testutil"
)

// TestMultiExpAccStreaming feeds the same rows in one go and in pieces with
// Results taken in between: Results leaves the accumulator usable.
func TestMultiExpAccStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := new(big.Int).SetString("e95e4a5f737059dc60dfc7ad95b3d8139515620f", 16)
	bases, exps := randOperands(rng, 300, 200, ^uint64(0))
	acc, err := NewMultiExpAcc(m, len(bases))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bases {
		add(acc, bases[i], exps[i])
		if i == 0 || i == 150 || i == len(bases)-1 {
			if got, want := result(acc), naiveMultiExp(bases[:i+1], exps[:i+1], m); got.Cmp(want) != 0 {
				t.Fatalf("after %d rows: %v, want %v", i+1, got, want)
			}
		}
	}
	if _, err := NewMultiExpAcc(big.NewInt(0), 1); err == nil {
		t.Error("zero modulus should fail")
	}
}

// FuzzMultiExpAccEquivalence: any chunking of any rows through the
// accumulator, at the narrowest window, the widest the memory cap allows and
// the automatic one, on 1, 2, 3, 4 or 7 lanes, equals Π big.Int.Exp, and
// every lane count executes exactly the one-lane multiplications. The input
// drives row count, chunk boundaries (1-row and empty chunks included), zero
// and full 64-bit exponents, and bases at or above m. Every input runs mod a
// 3-word m, mod a 16-word one (the shape of a 512-bit key's N²) and mod a
// 32-word one (a 1024-bit key's N²), which fold on the 16- and 32-word
// register kernels where the CPU has them.
func FuzzMultiExpAccEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff})
	f.Add([]byte{40, 3, 0, 1, 0x80, 0x7f, 9, 9, 9})
	f.Add([]byte{200, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	m3, _ := new(big.Int).SetString("e95e4a5f737059dc60dfc7ad95b3d8139515620f", 16)
	m16 := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	m32 := new(big.Int).Sub(new(big.Int).Lsh(One, 2048), big.NewInt(159))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		for _, m := range []*big.Int{m3, m16, m32} {
			multiExpAccEquivalence(t, data, m)
		}
	})
}

// multiExpAccEquivalence is FuzzMultiExpAccEquivalence's check mod one m.
func multiExpAccEquivalence(t *testing.T, data []byte, m *big.Int) {
	byteAt := func(i int) byte { return data[i%len(data)] ^ byte(i*151) }
	count := int(data[0])
	bases := make([]*big.Int, count)
	exps := make([]uint64, count)
	for i := range bases {
		var raw [8]byte
		for k := range raw {
			raw[k] = byteAt(1 + 9*i + k)
		}
		exps[i] = binary.LittleEndian.Uint64(raw[:])
		bases[i] = new(big.Int).SetUint64(exps[i]*0x9e3779b97f4a7c15 + 1)
		switch kind := byteAt(9 + 9*i); {
		case kind < 48:
			exps[i] = 0
		case kind < 96:
			exps[i] >>= 32
		case kind < 128:
			exps[i] = ^uint64(0)
		case kind < 160:
			bases[i].Add(bases[i], m) // above the modulus
		case kind < 176:
			bases[i].Set(m) // ≡ 0
		case kind < 192:
			bases[i].Neg(bases[i])
		}
	}
	if data[0]&1 == 1 && len(data) > 1 && data[1] == 0 {
		for i := range exps {
			exps[i] = 0 // the all-zero vector
		}
	}
	want := naiveMultiExp(bases, exps, m)
	widest := autoWindow(m, math.MaxInt, 64)
	for _, w := range []uint{1, widest, autoWindow(m, count, 64)} {
		oneLane := -1
		for _, lanes := range []int{1, 2, 3, 4, 7} {
			acc := newMultiExpAcc(m, w)
			for lo, c := 0, 0; lo < count; c++ {
				hi := min(count, lo+int(byteAt(2+c))%5) // chunks of 0–4 rows
				addRows(acc, bases[lo:hi], exps[lo:hi], lanes)
				lo = hi
			}
			if got := Results([]*MultiExpAcc{acc}, lanes)[0]; got.Cmp(want) != 0 {
				t.Fatalf("count=%d w=%d lanes=%d: %v, want %v", count, w, lanes, got, want)
			}
			if oneLane < 0 {
				oneLane = acc.mulCount()
			} else if got := acc.mulCount(); got != oneLane {
				t.Fatalf("count=%d w=%d lanes=%d: %d multiplications, one lane %d", count, w, lanes, got, oneLane)
			}
		}
	}
}

// TestMultiExpAccAddDoesNotAllocate pins the steady state at the chunk entry
// point: once a chunk's buckets exist, folding more rows into them allocates
// nothing per row, and per chunk, whatever its length, only the closure its
// windows are dealt through on one lane and a few more on several.
func TestMultiExpAccAddDoesNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(6))
	m := new(big.Int).Lsh(One, 1024)
	m.Sub(m, big.NewInt(105))
	bases, exps := randOperands(rng, 256, 1024, ^uint64(0))
	for _, lanes := range []int{1, 2, 4} {
		acc := newMultiExpAcc(m, 4)
		limbs := chunkLimbs(acc, bases)
		perChunk := func(rows int) float64 {
			accs, chunk, e := []*MultiExpAcc{acc}, limbs[:rows*acc.red.n], [][]uint64{exps[:rows]}
			for round := 0; round < 8; round++ { // occupy every bucket the rows touch
				AddChunk(accs, chunk, e, lanes)
			}
			return testing.AllocsPerRun(50, func() { AddChunk(accs, chunk, e, lanes) })
		}
		short, long := perChunk(len(bases)/4), perChunk(len(bases))
		if short != long {
			t.Errorf("lanes=%d: a %d-row chunk allocates %v times, a %d-row chunk %v: the fold allocates per row", lanes, len(bases)/4, short, len(bases), long)
		}
		if lanes == 1 && long > 1 {
			t.Errorf("one lane allocates %v times per chunk, want at most 1", long)
		}
		if long > float64(2*lanes) {
			t.Errorf("lanes=%d: %v allocations per chunk, want a few per lane", lanes, long)
		}
	}
}

// testExps is the exponent stream of the counting tests: count xorshift64
// values of the given bit length.
func testExps(count, expBits int) []uint64 {
	exps := make([]uint64, count)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range exps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		exps[i] = x >> (64 - uint(expBits))
	}
	return exps
}

// countedMuls runs an accumulator of width w over testExps and returns the
// multiplications it executed, the fixed part of Results included. The count
// depends on the exponents' digits alone, so a one-word modulus keeps it
// cheap.
func countedMuls(count, expBits int, w uint) int {
	m := big.NewInt(1_000_000_007)
	acc := newMultiExpAcc(m, w)
	base := big.NewInt(3)
	exps := testExps(count, expBits)
	bases := make([]*big.Int, count)
	for i := range bases {
		bases[i] = base
	}
	addRows(acc, bases, exps, 1)
	result(acc)
	return acc.mulCount()
}

// naiveMuls counts the multiplications of the per-row loop the bucket fold
// replaces over the same exponents: square and multiply for each term, one
// more to fold it in.
func naiveMuls(count, expBits int) int {
	n := -1 // the first term is copied, not multiplied in
	for _, e := range testExps(count, expBits) {
		if e != 0 {
			n += bits.Len64(e) - 1 + bits.OnesCount64(e) - 1 + 1
		}
	}
	return n
}

// TestPickMultiExpWindowNearBest checks the cost model against what the
// accumulator executes: the picked width costs at most 10 % more counted
// multiplications than the best width in [1,12], from 16-row sessions up,
// and from 32 rows the model's total — the fixed part of Results included — is
// within 6 % of the count (below that most buckets are empty and the model's
// 2^b per window overshoots).
func TestPickMultiExpWindowNearBest(t *testing.T) {
	sizes := []int{16, 32, 64, 128, 256, 1024, 10_000, 1_000_000}
	if testing.Short() {
		sizes = sizes[:7]
	}
	for _, count := range sizes {
		for _, expBits := range []int{32, 64} {
			t.Run(fmt.Sprintf("rows=%d/bits=%d", count, expBits), func(t *testing.T) {
				t.Parallel()
				best := -1
				for w := uint(1); w <= 12; w++ {
					if n := countedMuls(count, expBits, w); best < 0 || n < best {
						best = n
					}
				}
				picked := PickMultiExpWindow(count, expBits)
				got := countedMuls(count, expBits, picked)
				if got*10 > best*11 {
					t.Errorf("picked w=%d costs %d multiplications, best in [1,12] costs %d", picked, got, best)
				}
				if model := int(multiExpCost(int64(count), expBits, int(picked))); count >= 32 && (model*100 > got*106 || model*100 < got*94) {
					t.Errorf("model says %d multiplications at w=%d, the accumulator executed %d", model, picked, got)
				}
			})
		}
	}
}

// TestMultiExpMinRowsIsTheCrossover pins MultiExpMinRows to the counts: from
// there up the bucket fold at the width a session picks executes fewer
// multiplications than the per-row loop, for 32- and 64-bit values; one row
// lower it does not for at least one of them.
func TestMultiExpMinRowsIsTheCrossover(t *testing.T) {
	wins := func(rows, expBits int) bool {
		return countedMuls(rows, expBits, PickMultiExpWindow(rows, 64)) < naiveMuls(rows, expBits)
	}
	for rows := MultiExpMinRows; rows <= 4*MultiExpMinRows; rows++ {
		for _, expBits := range []int{32, 64} {
			if !wins(rows, expBits) {
				t.Errorf("%d rows of %d-bit values: bucket fold %d multiplications, per-row loop %d", rows, expBits,
					countedMuls(rows, expBits, PickMultiExpWindow(rows, 64)), naiveMuls(rows, expBits))
			}
		}
	}
	if below := MultiExpMinRows - 1; wins(below, 32) && wins(below, 64) {
		t.Errorf("the bucket fold already wins at %d rows: MultiExpMinRows is too high", below)
	}
}

// TestAutoWindowMemoryCap checks that an accumulator sized for 1e8 rows
// keeps its worst-case bucket state within the cap at every Paillier modulus
// size, and that the cap does not bite at the sizes sessions actually run.
func TestAutoWindowMemoryCap(t *testing.T) {
	for _, modBits := range []uint{1024, 2048, 4096, 8192} {
		m := new(big.Int).Lsh(One, modBits)
		m.Sub(m, One)
		acc, err := NewMultiExpAcc(m, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := bucketStateBytes(m, acc.w); got > maxFoldStateBytes {
			t.Errorf("%d-bit modulus: w=%d allows %d bytes of buckets, cap is %d", modBits, acc.w, got, maxFoldStateBytes)
		}
		if bucketStateBytes(m, acc.w+1) <= maxFoldStateBytes {
			t.Errorf("%d-bit modulus: w=%d is narrower than the cap requires", modBits, acc.w)
		}
		if small, want := autoWindow(m, 1024, 64), PickMultiExpWindow(1024, 64); small != want {
			t.Errorf("%d-bit modulus: cap changed the 1024-row window from %d to %d", modBits, want, small)
		}
	}
}

// TestMultiExpAccKernelOnAndOff is one fold round trip mod an 8-, a 16- and
// a 32-word modulus with the register kernels on and forced off: both equal
// Π big.Int.Exp, with the same multiplication count and, bucket for bucket,
// the same words — the kernel changes the speed of the fold and nothing else.
func TestMultiExpAccKernelOnAndOff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bitLen := range []int{512, 1024, 2048} {
		m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bitLen)))
		m.SetBit(m, bitLen-1, 1).SetBit(m, 0, 1)
		bases, exps := randOperands(rng, 300, bitLen, ^uint64(0))
		want := naiveMultiExp(bases, exps, m)
		t.Run(fmt.Sprintf("bits=%d", bitLen), func(t *testing.T) {
			var accs []*MultiExpAcc
			kernelModes(t, func(t *testing.T, on bool) {
				acc := newMultiExpAcc(m, 4)
				if kernel := acc.red.kw != 0; kernel != (on && hasADX) {
					t.Fatalf("kernel = %v with the switch on = %v", kernel, on)
				}
				addRows(acc, bases[:100], exps[:100], 1)
				addRows(acc, bases[100:], exps[100:], 2)
				if got := result(acc); got.Cmp(want) != 0 {
					t.Fatalf("%v, want %v", got, want)
				}
				accs = append(accs, acc)
			})
			on, off := accs[0], accs[1]
			if on.mulCount() != off.mulCount() {
				t.Errorf("%d multiplications with the kernel, %d without", on.mulCount(), off.mulCount())
			}
			if !reflect.DeepEqual(on.windows, off.windows) {
				t.Error("bucket words differ with the kernel on and off")
			}
		})
	}
}
