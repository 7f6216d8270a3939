package mathx

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// This file implements Pippenger-style bucket multi-exponentiation: the
// simultaneous product Π bases[i]^{exps[i]} mod m for many distinct bases
// with short (machine-word) exponents. That is exactly the selected-sum
// server's workload — every incoming ciphertext is a fresh base, every
// database value a ≤64-bit exponent — where per-element square-and-multiply
// costs ~1.5·bits multiplications per row.
//
// The method is a streaming accumulator (MultiExpAcc): each w-bit window of
// the exponents owns 2^w−1 buckets, a row costs one in-place modular
// multiplication per non-zero digit, and the running-sum combine of the
// buckets plus the shift squarings are paid once, in Result, however the
// rows were batched on their way in. MultiExp and MultiExpParallel are
// one-shot wrappers over it.

// MaxMultiExpWindow bounds the bucket window width: 2^16 buckets is already
// megabytes of pointers and past the point of diminishing returns for any
// realistic row count.
const MaxMultiExpWindow = 16

// MultiExpMinRows is the fold length from which the accumulator, at the width
// it picks and with Result's fixed part counted, executes fewer
// multiplications than square-and-multiply per row; shorter folds are better
// served by the per-row loop. TestMultiExpMinRowsIsTheCrossover pins it to
// the counts (table in EXPERIMENTS.md).
const MultiExpMinRows = 4

// maxFoldStateBytes caps the bucket state one accumulator may grow to when
// it picks its own window, whatever the row count: beyond a few MiB the
// buckets fall out of cache and a wider window stops paying.
const maxFoldStateBytes = 4 << 20

// MultiExpAcc accumulates Π base^exp mod m over rows added one at a time.
// It is not safe for concurrent use; parallel folds keep one accumulator per
// goroutine and multiply the results.
//
// Buckets are n-word limb slices multiplied by Reducer.montMul, and a base
// goes in as it arrives, unconverted: read as a Montgomery form it stands for
// base/R, so after rows with exponents x_i the buckets combine to the
// Montgomery form of Π base_i^{x_i} · R^(−Σx_i). The accumulator sums the
// exponents as it goes and Result multiplies the one factor R^(Σx_i) back in.
// Σx_i runs over every row added, whatever a row's base encrypts, so neither
// the factor nor the time it takes says anything about a client's selection.
type MultiExpAcc struct {
	red *Reducer
	w   uint
	// windows[j][d-1] is the montMul product of the bases whose j'th w-bit
	// digit is d, nil while no row has landed there. A window's bucket array
	// is allocated when its first non-zero digit appears, so 32-bit
	// exponents never pay for the upper windows.
	windows [][][]big.Word
	expLo   uint64 // Σ exp over the rows added, low and high halves
	expHi   uint64
	t       []big.Word // montMul's 2n words of scratch
	row     []big.Word // the base of Add, as limbs
	reduced big.Int    // a base outside [0, m), reduced
	muls    int        // multiplications performed; tests read it
}

// NewMultiExpAcc returns an accumulator mod m for about expectedRows rows;
// see Reducer.NewMultiExpAcc, which callers holding a Reducer use instead.
func NewMultiExpAcc(m *big.Int, expectedRows int) (*MultiExpAcc, error) {
	red, err := NewReducer(m)
	if err != nil {
		return nil, err
	}
	return red.NewMultiExpAcc(expectedRows)
}

// NewMultiExpAcc returns an accumulator for about expectedRows rows, or
// ErrBadModulus when the modulus is even. The window width follows the cost
// model of PickMultiExpWindow for full 64-bit exponents (the optimum barely
// moves with the exponent length) and is capped so the bucket state stays
// within 4 MiB for any row count.
func (r *Reducer) NewMultiExpAcc(expectedRows int) (*MultiExpAcc, error) {
	if r.mw == nil {
		return nil, errEvenModulus
	}
	return r.newAcc(autoWindow(r.m, expectedRows, 64)), nil
}

var errEvenModulus = fmt.Errorf("mathx: Montgomery multiplication needs an odd modulus: %w", ErrBadModulus)

// newOddReducer is NewReducer for the callers of the chain kernel.
func newOddReducer(m *big.Int) (*Reducer, error) {
	red, err := NewReducer(m)
	if err == nil && red.mw == nil {
		err = errEvenModulus
	}
	return red, err
}

// newAcc opens an accumulator of window width w; the modulus must be odd.
func (r *Reducer) newAcc(w uint) *MultiExpAcc {
	return &MultiExpAcc{
		red:     r,
		w:       w,
		windows: make([][][]big.Word, (64+w-1)/w),
		t:       make([]big.Word, 2*r.n),
	}
}

// mul sets z = x·y·R⁻¹ mod m; z may alias either operand.
func (a *MultiExpAcc) mul(z, x, y []big.Word) {
	a.muls++
	a.red.montMul(z, x, y, a.t)
}

// Add multiplies base^exp into the product. base may be any integer (it is
// reduced mod m); a zero exponent contributes nothing and costs nothing.
func (a *MultiExpAcc) Add(base *big.Int, exp uint64) {
	if exp == 0 {
		return
	}
	if m := a.red.m; base.Sign() < 0 || base.Cmp(m) >= 0 {
		base = a.reduced.Mod(base, m)
	}
	a.row = a.red.Limbs(a.row, base)
	a.AddLimbs(a.row, exp)
}

// AddLimbs is Add for a base already in [0, m) and laid out by
// Reducer.Limbs: the form in which one decoded ciphertext feeds several
// accumulators. A row costs one multiplication per non-zero digit of exp
// that lands in an occupied bucket, and nothing else.
func (a *MultiExpAcc) AddLimbs(base []big.Word, exp uint64) {
	if len(base) != a.red.n {
		panic("mathx: MultiExpAcc.AddLimbs: base is not Reducer.Words() long")
	}
	var carry uint64
	a.expLo, carry = bits.Add64(a.expLo, exp, 0)
	a.expHi += carry
	mask := uint64(1)<<a.w - 1
	for j := 0; exp != 0; j, exp = j+1, exp>>a.w {
		d := exp & mask
		if d == 0 {
			continue
		}
		win := a.windows[j]
		if win == nil {
			win = make([][]big.Word, mask)
			a.windows[j] = win
		}
		if b := win[d-1]; b != nil {
			a.mul(b, b, base)
		} else {
			win[d-1] = append(make([]big.Word, 0, len(base)), base...)
		}
	}
}

// Result returns the product of everything added so far, in [0, m). It
// leaves the accumulator unchanged, so more rows may follow.
func (a *MultiExpAcc) Result() *big.Int {
	n := a.red.n
	result := make([]big.Word, n)
	tmp := make([]big.Word, 2*n)
	running, winAcc := tmp[:n], tmp[n:]
	haveResult := false
	for j := len(a.windows) - 1; j >= 0; j-- {
		if haveResult {
			// Shift the higher windows' product up by one window.
			for s := uint(0); s < a.w; s++ {
				a.mul(result, result, result)
			}
		}
		win := a.windows[j]
		if win == nil {
			continue
		}
		// Running-sum combine: winAcc = Π_d bucket[d]^d, scanning from the
		// top bucket down — one multiplication per occupied bucket and one
		// per digit below the highest occupied one.
		haveRunning, haveAcc := false, false
		for d := len(win); d >= 1; d-- {
			if b := win[d-1]; b != nil {
				if haveRunning {
					a.mul(running, running, b)
				} else {
					copy(running, b)
					haveRunning = true
				}
			}
			if !haveRunning {
				continue
			}
			if haveAcc {
				a.mul(winAcc, winAcc, running)
			} else {
				copy(winAcc, running)
				haveAcc = true
			}
		}
		if haveResult {
			a.mul(result, result, winAcc)
		} else {
			copy(result, winAcc)
			haveResult = true
		}
	}
	if !haveResult {
		// Nothing but zero exponents: the empty product, 1 mod m.
		return new(big.Int).Mod(One, a.red.m)
	}
	// result is the Montgomery form of the product over R^Σexp. Multiply by
	// the Montgomery form of R^Σexp — R^(Σexp+1), by square and multiply
	// from rr down the bits of the 128-bit sum — and convert out.
	rr, factor := a.red.rr, running
	copy(factor, rr)
	top := bits.Len64(a.expLo)
	if a.expHi != 0 {
		top = 64 + bits.Len64(a.expHi)
	}
	for i := top - 2; i >= 0; i-- {
		a.mul(factor, factor, factor)
		word, off := a.expLo, i
		if i >= 64 {
			word, off = a.expHi, i-64
		}
		if word>>off&1 == 1 {
			a.mul(factor, factor, rr)
		}
	}
	a.mul(result, result, factor)
	a.muls++ // montOut's
	return a.red.montOut(result, a.t)
}

// PickMultiExpWindow returns the window width that minimizes the number of
// modular multiplications the accumulator executes for count rows of
// maxBits-bit exponents. It is exported so benchmarks can sweep widths
// around the chosen one.
func PickMultiExpWindow(count, maxBits int) uint {
	return pickWindow(count, maxBits, MaxMultiExpWindow)
}

func pickWindow(count, maxBits int, widest uint) uint {
	if count < 1 {
		count = 1
	}
	if maxBits < 1 {
		maxBits = 1
	}
	best, bestCost := uint(1), int64(-1)
	for w := uint(1); w <= widest; w++ {
		if cost := multiExpCost(int64(count), maxBits, int(w)); bestCost < 0 || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// multiExpCost counts the accumulator's multiplications. A window of b bits
// (w, or what is left of maxBits at the top) multiplies once per row whose
// digit is non-zero, less one per occupied bucket (its first row is copied
// in); the combine then pays one per occupied bucket and one per digit value,
// so a window costs count·(1−2^−b) + 2^b. The shift squarings, w per window
// below the top, are paid once. So is the part of Result no width changes:
// square and multiply for R^Σexp, 1.5 multiplications per bit of a sum about
// log₂ count bits longer than the exponents, then the multiplication by it
// and the conversion out.
func multiExpCost(count int64, maxBits, w int) int64 {
	windows := (maxBits + w - 1) / w
	cost := int64(windows-1) * int64(w)
	for j := 0; j < windows; j++ {
		b := w
		if j == windows-1 {
			b = maxBits - w*(windows-1)
		}
		cost += count - count>>b + int64(1)<<b
	}
	sumBits := maxBits + bits.Len64(uint64(count)) - 1
	return cost + int64(3*sumBits/2+2)
}

// autoWindow is the model's pick, capped so that even full 64-bit exponents
// keep the bucket state of one accumulator mod m within maxFoldStateBytes.
func autoWindow(m *big.Int, count, maxBits int) uint {
	widest := uint(1)
	for w := uint(2); w <= MaxMultiExpWindow && bucketStateBytes(m, w) <= maxFoldStateBytes; w++ {
		widest = w
	}
	return pickWindow(count, maxBits, widest)
}

// bucketStateBytes bounds the memory of an accumulator mod m at width w with
// every bucket of every window occupied: a slice header and the modulus'
// words.
func bucketStateBytes(m *big.Int, w uint) int64 {
	const wordBytes = bits.UintSize / 8
	perBucket := int64((3 + len(m.Bits())) * wordBytes)
	windows := int64((64 + w - 1) / w)
	return windows * (int64(1)<<w - 1) * perBucket
}

// MultiExp returns Π bases[i]^{exps[i]} mod m via bucket
// multi-exponentiation. window selects the bucket width in bits; 0 picks
// the cost-model optimum for the operand count. Bases may be any integers
// (they are reduced mod m); m must be positive and odd. Zero exponents
// contribute nothing and are skipped for free.
func MultiExp(bases []*big.Int, exps []uint64, m *big.Int, window uint) (*big.Int, error) {
	return MultiExpParallel(bases, exps, m, window, 1)
}

// MultiExpParallel is MultiExp with the rows split across workers
// goroutines: each worker runs its own accumulator over a contiguous slice
// of the rows and the partial products recombine with plain modular
// multiplication, so the result is identical to MultiExp.
func MultiExpParallel(bases []*big.Int, exps []uint64, m *big.Int, window uint, workers int) (*big.Int, error) {
	red, err := newOddReducer(m)
	if err != nil {
		return nil, err
	}
	maxBits, err := multiExpCheck(bases, exps, window)
	if err != nil {
		return nil, err
	}
	count := len(bases)
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	if window == 0 {
		window = autoWindow(m, count/workers, maxBits)
	}
	fold := func(lo, hi int) *big.Int {
		acc := red.newAcc(window)
		for i := lo; i < hi; i++ {
			acc.Add(bases[i], exps[i])
		}
		return acc.Result()
	}
	if workers == 1 {
		return fold(0, count), nil
	}
	partials := make([]*big.Int, workers)
	var wg sync.WaitGroup
	for k := range partials {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			partials[k] = fold(k*count/workers, (k+1)*count/workers)
		}(k)
	}
	wg.Wait()
	var s Scratch
	for _, p := range partials[1:] {
		red.Mul(partials[0], partials[0], p, &s)
	}
	return partials[0], nil
}

// multiExpCheck validates the operands of a one-shot fold and returns the
// longest exponent's bit length.
func multiExpCheck(bases []*big.Int, exps []uint64, window uint) (int, error) {
	if len(bases) != len(exps) {
		return 0, fmt.Errorf("mathx: %d bases vs %d exponents", len(bases), len(exps))
	}
	if window > MaxMultiExpWindow {
		return 0, fmt.Errorf("mathx: multi-exp window must be in [0,%d], got %d", MaxMultiExpWindow, window)
	}
	maxBits := 0
	for i, b := range bases {
		if b == nil {
			return 0, fmt.Errorf("mathx: base %d is nil", i)
		}
		if n := bits.Len64(exps[i]); n > maxBits {
			maxBits = n
		}
	}
	return maxBits, nil
}
