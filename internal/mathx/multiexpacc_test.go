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

// FuzzMultiExpAccEquivalence: any chunking of any rows through two
// accumulators sharing one Reducer, the second taking the high half of each
// row's exponent, at the narrowest window, the widest the memory cap allows
// and the automatic one, on 1, 2, 3, 4 or 7 lanes, equals Π big.Int.Exp, and
// every lane count executes exactly the one-lane multiplications. The input
// drives row count, chunk boundaries (chunks of 0–16 rows, 1-row and empty
// ones included), zero and full 64-bit exponents, and bases at or above m,
// ≡ 0 and ≡ −1. Every input runs mod a 3-word m, mod an 8-word and a 16-word
// one (the shapes of a 256- and a 512-bit key's N²), mod a 32-word one (a
// 1024-bit key's N²) and mod a 1600-bit, 25-word one. The 8-, 16- and
// 32-word moduli fold on the register kernels where the CPU has them, the
// 25-word one on the addMulVVW montMul; on a CPU with the lanes they fold on
// the ten-, twenty- and forty-limb lane kernels instead, the 3-word one on
// ten limbs and the 25-word one on forty.
func FuzzMultiExpAccEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff})
	f.Add([]byte{40, 3, 0, 1, 0x80, 0x7f, 9, 9, 9})
	f.Add([]byte{200, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// The lane fold's shapes, at the widest window, where digits 1–8 are
	// eight buckets of window 0. Buckets 1–8 are primed by a first chunk,
	// then a chunk of 8+k rows fills one lane call and leaves k = 1…7
	// products for the last.
	exps, sizes := seq(1, 8), []int{8}
	for k := range 7 {
		exps = append(append(exps, seq(1, 8)...), seq(1, uint64(k+1))...)
		sizes = append(sizes, 9+k)
	}
	f.Add(accSeed(exps, nil, sizes))
	// Rows of one bucket inside one group: they wait, up to eight of them.
	exps = append(seq(1, 8), 1, 2, 1, 3, 1, 4, 5, 6, 7, 8, 1, 2)
	for range 16 {
		exps = append(exps, 1)
	}
	f.Add(accSeed(exps, nil, []int{8, 12, 16}))
	// Bases ≡ 0 and ≡ −1, as a bucket's first row and as a product.
	f.Add(accSeed([]uint64{1, 2, 3, 1, 2, 3, 1, 2, 3}, []byte{kindZero, kindMinusOne, kindPlain, kindPlain, kindZero, kindMinusOne, kindMinusOne, kindZero, kindPlain}, []int{3, 6}))
	// Windows no row has a non-zero digit in: window 0 at w = 1, and the
	// windows between bit 3 and bit 40 at every width.
	f.Add(accSeed([]uint64{2, 6, 2, 1 << 40, 6 << 40, 2}, nil, []int{2, 4}))
	// The lane combine's shapes. A top window narrower than w wherever w
	// does not divide 64; one occupied bucket in each window; a window whose
	// only bucket is digit 2^(40 mod w) beside one with up to forty, run in
	// one batch with it.
	f.Add(accSeed([]uint64{1 << 63, 3 << 62, 1<<63 | 1}, nil, []int{3}))
	f.Add(accSeed([]uint64{5}, nil, []int{1}))
	exps = seq(1, 40)
	exps = append(exps, 1<<40, 1<<40, 1<<40)
	f.Add(accSeed(exps, nil, []int{16, 16, 11}))
	// 1, 7, 9 and 17 running sums at w = 1, one per bit: one batch, a batch
	// less one, one past a batch, and three batches.
	for _, k := range []uint{1, 7, 9, 17} {
		f.Add(accSeed([]uint64{1<<k - 1, 1 << (k - 1), 1<<k - 1}, nil, []int{2, 1}))
	}
	// Both accumulators busy: exponents with both halves set.
	f.Add(accSeed([]uint64{3<<32 | 5, 7<<32 | 1, 0xffff<<32 | 0xffff, 1 << 32}, nil, []int{4}))
	m3, _ := new(big.Int).SetString("e95e4a5f737059dc60dfc7ad95b3d8139515620f", 16)
	m8 := new(big.Int).Sub(new(big.Int).Lsh(One, 512), big.NewInt(569))
	m16 := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	m32 := new(big.Int).Sub(new(big.Int).Lsh(One, 2048), big.NewInt(159))
	m25 := new(big.Int).Sub(new(big.Int).Lsh(One, 1600), big.NewInt(593))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		for _, m := range []*big.Int{m3, m8, m16, m32, m25} {
			multiExpAccEquivalence(t, data, m)
		}
	})
}

// The row kinds of multiExpAccEquivalence that the seeds name.
const (
	kindZero     = 170 // the base is m: ≡ 0
	kindMinusOne = 200 // the base is m − 1
	kindPlain    = 255 // the base and exponent as drawn
)

// seq returns lo, lo+1, …, hi.
func seq(lo, hi uint64) []uint64 {
	var s []uint64
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

// accSeed encodes an input of multiExpAccEquivalence: row i with exponent
// exps[i] and kind kinds[i] (kindPlain for every row when kinds is nil), and
// chunks of sizes[c] rows, which must add up to the row count.
func accSeed(exps []uint64, kinds []byte, sizes []int) []byte {
	data := make([]byte, 1+9*len(exps)+len(sizes))
	data[0] = byte(len(exps))
	for i, e := range exps {
		binary.LittleEndian.PutUint64(data[1+9*i:], e)
		data[9+9*i] = kindPlain
		if kinds != nil {
			data[9+9*i] = kinds[i]
		}
	}
	for c, size := range sizes {
		data[1+9*len(exps)+c] = byte(size)
	}
	for i := 1; i < len(data); i++ {
		data[i] ^= byte(i * 151) // undo byteAt's decorrelation
	}
	return data
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
		case kind < 208:
			bases[i].Sub(m, One) // ≡ −1
		}
	}
	if data[0]&1 == 1 && len(data) > 1 && data[1] == 0 {
		for i := range exps {
			exps[i] = 0 // the all-zero vector
		}
	}
	// The second accumulator's column, as a value's square shares a fold
	// with the value: the high halves, zero for exponents below 2^32.
	cols := [][]uint64{exps, make([]uint64, count)}
	for i, e := range exps {
		cols[1][i] = e >> 32
	}
	want := []*big.Int{naiveMultiExp(bases, cols[0], m), naiveMultiExp(bases, cols[1], m)}
	widest := autoWindow(m, math.MaxInt, 64)
	for _, w := range []uint{1, widest, autoWindow(m, count, 64)} {
		var oneLane [2]int
		for _, lanes := range []int{1, 2, 3, 4, 7} {
			first := newMultiExpAcc(m, w)
			accs := []*MultiExpAcc{first, first.red.newAcc(w)}
			for lo, c := 0, 0; lo < count; c++ {
				hi := min(count, lo+int(byteAt(1+9*count+c))%17)
				AddChunk(accs, chunkLimbs(first, bases[lo:hi]), [][]uint64{cols[0][lo:hi], cols[1][lo:hi]}, lanes)
				lo = hi
			}
			for c, got := range Results(accs, lanes) {
				if got.Cmp(want[c]) != 0 {
					t.Fatalf("count=%d w=%d lanes=%d column %d: %v, want %v", count, w, lanes, c, got, want[c])
				}
				if lanes == 1 {
					oneLane[c] = accs[c].mulCount()
				} else if got := accs[c].mulCount(); got != oneLane[c] {
					t.Fatalf("count=%d w=%d lanes=%d column %d: %d multiplications, one lane %d", count, w, lanes, c, got, oneLane[c])
				}
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

// TestNewAccAllocations: opening an accumulator on a lane modulus makes
// five allocations: the accumulator, its windows, its lanes, the first
// lane's chain scratch and that lane's aligned lane operands. Its lane
// group lives in the lane itself.
func TestNewAccAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	red, err := NewReducer(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.laneLimbs == 0 {
		t.Skip("no lane kernel on this CPU")
	}
	red.lanes() // built once per Reducer, not per accumulator
	if got := testing.AllocsPerRun(100, func() { red.newAcc(4) }); got != 5 {
		t.Errorf("newAcc on a lane modulus allocates %v times, want 5", got)
	}
}

// TestResultsSameOnAnyLanes: on either kernel, the combined windows of two
// accumulators sharing a Reducer (24 running sums at w = 4, three lane
// batches on the lane kernel) are the same words whether their combine runs
// on one Deal lane or two, and so are the results and the multiplication
// counts.
func TestResultsSameOnAnyLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	bases, exps := randOperands(rng, 300, 1024, ^uint64(0))
	high := make([]uint64, len(exps))
	for i, e := range exps {
		high[i] = e >> 32
	}
	for _, kernel := range []string{"lanes", "chain"} {
		t.Run(kernel, func(t *testing.T) {
			fold := func() []*MultiExpAcc {
				first := newMultiExpAcc(m, 4)
				if kernel == "chain" {
					first = newChainAcc(m, 4)
				}
				accs := []*MultiExpAcc{first, first.red.newAcc(4)}
				AddChunk(accs, chunkLimbs(first, bases), [][]uint64{exps, high}, 1)
				return accs
			}
			combined := func(accs []*MultiExpAcc, lanes int) []big.Word {
				words := make([]big.Word, 2*accs[0].windowCount()*accs[0].red.n)
				if accs[0].lwin != nil {
					combineLanes(accs, words, 2*accs[0].windowCount(), lanes)
				} else {
					combineChains(accs, words, 2*accs[0].windowCount(), lanes)
				}
				return words
			}
			one, two := fold(), fold()
			if kernel == "lanes" && one[0].lwin == nil {
				t.Skip("no lane kernel on this CPU")
			}
			if a, b := combined(one, 1), combined(two, 2); !reflect.DeepEqual(a, b) {
				t.Fatal("combined windows differ on one and two lanes")
			}
			got1, got2 := Results(one, 1), Results(two, 2)
			for c := range got1 {
				if !reflect.DeepEqual(got1[c].Bits(), got2[c].Bits()) {
					t.Errorf("column %d: %v on one lane, %v on two", c, got1[c], got2[c])
				}
				if one[c].mulCount() != two[c].mulCount() {
					t.Errorf("column %d: %d multiplications on one lane, %d on two", c, one[c].mulCount(), two[c].mulCount())
				}
			}
		})
	}
}

// TestResultsAllocsDoNotGrowWithWindows: on one lane, Results allocates as
// often for an accumulator with one occupied window as for one with sixteen,
// on either kernel: the combine's running sums and the closing factor live
// in the lanes' scratch, not in a buffer per window.
func TestResultsAllocsDoNotGrowWithWindows(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	m := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	bases, wide := randOperands(rng, 200, 1024, ^uint64(0))
	narrow := make([]uint64, len(wide))
	for i, e := range wide {
		narrow[i] = 1 + e%15 // window 0 alone
	}
	for _, kernel := range []string{"lanes", "chain"} {
		allocs := func(exps []uint64) float64 {
			acc := newMultiExpAcc(m, 4)
			if kernel == "chain" {
				acc = newChainAcc(m, 4)
			}
			addRows(acc, bases, exps, 1)
			accs := []*MultiExpAcc{acc}
			Results(accs, 1)
			return testing.AllocsPerRun(20, func() { Results(accs, 1) })
		}
		if one, sixteen := allocs(narrow), allocs(wide); one != sixteen {
			t.Errorf("%s: Results allocates %v times for one window, %v for sixteen", kernel, one, sixteen)
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
// depends on the exponents' digits alone, so a one-word modulus on the chain
// kernel keeps it cheap; the lane fold, which a one-word modulus would take
// on an IFMA host at several times the cost, counts the same
// (TestMultiExpAccKernelOnAndOff).
func countedMuls(count, expBits int, w uint) int {
	m := big.NewInt(1_000_000_007)
	acc := newChainAcc(m, w)
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
// a 32-word modulus with the register kernels on and forced off, the lane
// fold switched off: both equal Π big.Int.Exp, with the same multiplication
// count and, bucket for bucket, the same words — the kernel changes the speed
// of the fold and nothing else. Then the same rows on the lane fold, where
// the CPU has it (the 8- and 16-word moduli): the same result and count, and
// bucket for bucket the same residue once each side is read in the chain
// kernel's meaning (reducedBuckets). Their words differ, and must: a lane
// bucket stands for its rows over powers of the lanes' R, not montMul's.
func TestMultiExpAccKernelOnAndOff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bitLen := range []int{512, 1024, 2048} {
		m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bitLen)))
		m.SetBit(m, bitLen-1, 1).SetBit(m, 0, 1)
		bases, exps := randOperands(rng, 300, bitLen, ^uint64(0))
		want := naiveMultiExp(bases, exps, m)
		fold := func(t *testing.T, acc *MultiExpAcc) *MultiExpAcc {
			addRows(acc, bases[:100], exps[:100], 1)
			addRows(acc, bases[100:], exps[100:], 2)
			if got := result(acc); got.Cmp(want) != 0 {
				t.Fatalf("%v, want %v", got, want)
			}
			return acc
		}
		t.Run(fmt.Sprintf("bits=%d", bitLen), func(t *testing.T) {
			var accs []*MultiExpAcc
			kernelModes(t, func(t *testing.T, on bool) {
				acc := newChainAcc(m, 4)
				if kernel := acc.red.kw != 0; kernel != (on && hasADX) {
					t.Fatalf("kernel = %v with the switch on = %v", kernel, on)
				}
				accs = append(accs, fold(t, acc))
			})
			on, off := accs[0], accs[1]
			if on.mulCount() != off.mulCount() {
				t.Errorf("%d multiplications with the kernel, %d without", on.mulCount(), off.mulCount())
			}
			if !reflect.DeepEqual(on.windows, off.windows) {
				t.Error("bucket words differ with the kernel on and off")
			}
			lane := fold(t, newMultiExpAcc(m, 4))
			if got, want := lane.lwin != nil, hasIFMA && bitLen <= laneBits; got != want {
				t.Fatalf("lane fold = %v, want %v", got, want)
			}
			if lane.mulCount() != on.mulCount() {
				t.Errorf("%d multiplications on the lanes, %d on the chain kernel", lane.mulCount(), on.mulCount())
			}
			if !reflect.DeepEqual(reducedBuckets(lane, exps), reducedBuckets(on, exps)) {
				t.Error("buckets differ mod m on the lanes and on the chain kernel")
			}
		})
	}
}

// newChainAcc is newMultiExpAcc with the lane fold switched off, whatever the
// CPU: its buckets are montMul's words.
func newChainAcc(m *big.Int, w uint) *MultiExpAcc {
	red, err := NewReducer(m)
	if err != nil {
		panic(err)
	}
	red.laneLimbs = 0
	return red.newAcc(w)
}

// reducedBuckets is every bucket of acc reduced into [0, m), nil where empty.
// A chain bucket of c rows stands for their product over R^c, R = b^n, and
// a lane bucket for it over R_L^c, R_L = 2^(52·limbs), each holding its
// first row as it came; so a lane bucket is mapped to the chain's meaning
// by (R_L/R)^(c−1) = 2^(s·(c−1)), s = 52·limbs − W·n, with c counted from
// the exponents exps of every row acc took.
func reducedBuckets(acc *MultiExpAcc, exps []uint64) [][]*big.Int {
	m, n, L := acc.red.m, acc.red.n, acc.red.laneLimbs
	mask := uint64(1)<<acc.w - 1
	out := make([][]*big.Int, acc.windowCount())
	for j := range out {
		if !acc.occupied(j) {
			continue
		}
		out[j] = make([]*big.Int, mask)
		for d := range out[j] {
			v := new(big.Int)
			switch {
			case acc.lwin == nil && acc.windows[j][d] != nil:
				v.SetBits(append([]big.Word(nil), acc.windows[j][d]...))
			case acc.lwin != nil && acc.lwin[j].full[d]:
				words := make([]big.Word, n+1)
				fromLimbs(words, acc.lwin[j].limbs[d*L:(d+1)*L])
				rows := 0
				for _, e := range exps {
					if e>>(uint(j)*acc.w)&mask == uint64(d+1) {
						rows++
					}
				}
				s := limbBits*L - bits.UintSize*n
				v.SetBits(words).Lsh(v, uint(s*(rows-1)))
			default:
				continue
			}
			out[j][d] = v.Mod(v, m)
		}
	}
	return out
}

// benchModuli are the bucket benchmarks' moduli: 1024 bits (a 512-bit key's
// N², on the twenty-limb lanes or montMul16) and 2048 bits (a 1024-bit key's
// N², on the forty-limb lanes or montMul32).
var benchModuli = []struct {
	bits int
	m    *big.Int
}{
	{1024, new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))},
	{2048, new(big.Int).Sub(new(big.Int).Lsh(One, 2048), big.NewInt(159))},
}

// BenchmarkAccFold times the bucket pass of a 1024-row chunk of 32-bit
// exponents at w = 11 mod each of benchModuli, on the lane fold and on the
// chain kernel (the register kernel where the CPU has it), and reports ns
// per row. The buckets are occupied before the timer starts, so every digit
// is a product.
func BenchmarkAccFold(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, bm := range benchModuli {
		m := bm.m
		bases, exps := randOperands(rng, 1024, bm.bits, 0xffffffff)
		for _, mode := range []string{"lanes", "chain"} {
			b.Run(fmt.Sprintf("bits=%d/%s", bm.bits, mode), func(b *testing.B) {
				acc := newMultiExpAcc(m, 11)
				if mode == "chain" {
					acc = newChainAcc(m, 11)
				}
				accs, chunk, e := []*MultiExpAcc{acc}, chunkLimbs(acc, bases), [][]uint64{exps}
				AddChunk(accs, chunk, e, 1)
				b.ResetTimer()
				for range b.N {
					AddChunk(accs, chunk, e, 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(exps)), "ns/row")
			})
		}
	}
}

// BenchmarkAccResults times Results mod each of benchModuli over 32-bit
// exponents, on the lane fold and on the chain kernel, at a pooled-sharded
// shard session's shape (10 000 rows at w = 11, three windows) and a
// small-sessions one (128 rows at w = 5, seven windows). The session
// sub-benchmarks time a fresh 128-row accumulator through AddChunk and
// Results at w = 5, the width PickMultiExpWindow picks there, and at w = 8.
func BenchmarkAccResults(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, bm := range benchModuli {
		m := bm.m
		bases, exps := randOperands(rng, 10_000, bm.bits, 0xffffffff)
		newAcc := func(kernel string, w uint) *MultiExpAcc {
			if kernel == "chain" {
				return newChainAcc(m, w)
			}
			return newMultiExpAcc(m, w)
		}
		for _, shape := range []struct {
			rows int
			w    uint
		}{{10_000, 11}, {128, 5}} {
			for _, kernel := range []string{"lanes", "chain"} {
				b.Run(fmt.Sprintf("bits=%d/results/rows=%d/w=%d/%s", bm.bits, shape.rows, shape.w, kernel), func(b *testing.B) {
					acc := newAcc(kernel, shape.w)
					addRows(acc, bases[:shape.rows], exps[:shape.rows], 1)
					accs := []*MultiExpAcc{acc}
					b.ResetTimer()
					for range b.N {
						Results(accs, 1)
					}
				})
			}
		}
		for _, w := range []uint{5, 8} {
			for _, kernel := range []string{"lanes", "chain"} {
				b.Run(fmt.Sprintf("bits=%d/session/rows=128/w=%d/%s", bm.bits, w, kernel), func(b *testing.B) {
					chunk := chunkLimbs(newAcc(kernel, w), bases[:128])
					e := [][]uint64{exps[:128]}
					b.ResetTimer()
					for range b.N {
						accs := []*MultiExpAcc{newAcc(kernel, w)}
						AddChunk(accs, chunk, e, 1)
						Results(accs, 1)
					}
				})
			}
		}
	}
}
