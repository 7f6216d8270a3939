package mathx

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
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
// buckets plus the shift squarings are paid once, in Results, however the
// rows were batched on their way in. A chunk's windows fold on several lanes
// at once. MultiExp and MultiExpParallel are one-shot wrappers over it.

// MaxMultiExpWindow bounds the bucket window width: 2^16 buckets is already
// megabytes of pointers and past the point of diminishing returns for any
// realistic row count.
const MaxMultiExpWindow = 16

// maxFoldStateBytes caps the bucket state one accumulator may grow to when
// it picks its own window, whatever the row count: beyond a few MiB the
// buckets fall out of cache and a wider window stops paying.
const maxFoldStateBytes = 4 << 20

// MultiExpAcc accumulates Π base^exp mod m over rows added a chunk at a
// time. One accumulator is not safe for concurrent use, but a chunk's windows
// are folded on several lanes at once (AddChunk, Results).
//
// Buckets are n-word limb slices multiplied by Reducer.montMul, and a base
// goes in as it arrives, unconverted: read as a Montgomery form it stands for
// base/R, so after rows with exponents x_i the buckets combine to the
// Montgomery form of Π base_i^{x_i} · R^(−Σx_i). The accumulator sums the
// exponents as it goes and Results multiplies the one factor R^(Σx_i) back in.
// Σx_i runs over every row added, whatever a row's base encrypts, so neither
// the factor nor the time it takes says anything about a client's selection.
// Where the Reducer has a lane kernel the buckets are radix-2^52 limbs
// multiplied eight at a time instead, in the lanes' Montgomery domain, and
// the factor is the lanes' R^(Σx_i) (lanefold.go).
type MultiExpAcc struct {
	red *Reducer
	w   uint
	// windows[j][d-1] is the montMul product of the bases whose j'th w-bit
	// digit is d, nil while no row has landed there. A window's bucket array
	// is allocated when its first non-zero digit appears, so 32-bit
	// exponents never pay for the upper windows. Where the Reducer has a lane
	// kernel the buckets are lwin's instead (lanefold.go), and windows is nil.
	windows [][][]big.Word
	lwin    []laneWindow
	rows    []uint64 // the current chunk's rows as limbs, on the lane kernel
	expLo   uint64   // Σ exp over the rows added, low and high halves
	expHi   uint64
	reach   int       // windows the current chunk's exponents reach
	lanes   []accLane // lanes[0] also runs the serial part of Results
}

// accLane is what one lane owns in an accumulator: montMul's 2n words of
// scratch, n more for a running sum (combine's, horner's factor, the lane
// combine's joins), the lane kernel's group where there is one, and the
// multiplications it performed, which tests read. The padding keeps one
// lane's counter off its neighbour's cache line.
type accLane struct {
	t, run []big.Word
	group  laneGroup
	muls   int
	_      [64]byte
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
	a := &MultiExpAcc{red: r, w: w}
	if r.laneLimbs != 0 {
		a.lwin = make([]laneWindow, a.windowCount())
	} else {
		a.windows = make([][][]big.Word, a.windowCount())
	}
	a.growLanes(1)
	return a
}

// growLanes gives the accumulator at least k lanes. It runs before the lanes
// start: the slice may move.
func (a *MultiExpAcc) growLanes(k int) {
	for len(a.lanes) < k {
		n := a.red.n
		buf := make([]big.Word, 3*n)
		l := accLane{t: buf[: 2*n : 2*n], run: buf[2*n:]}
		if a.lwin != nil {
			l.group.init(a.red.lanes())
		}
		a.lanes = append(a.lanes, l)
	}
}

// windowCount is the number of w-bit windows of a 64-bit exponent.
func (a *MultiExpAcc) windowCount() int { return int(64+a.w-1) / int(a.w) }

// occupied reports whether a row has landed in window j.
func (a *MultiExpAcc) occupied(j int) bool {
	if a.lwin != nil {
		return a.lwin[j].limbs != nil
	}
	return a.windows[j] != nil
}

// mul sets z = x·y·R⁻¹ mod m on lane l; z may alias either operand.
func (a *MultiExpAcc) mul(l *accLane, z, x, y []big.Word) {
	l.muls++
	a.red.montMul(z, x, y, l.t)
}

// AddChunk folds one chunk of rows into every accumulator of accs, which must
// share one Reducer: row i's base is limbs[i·n:(i+1)·n] (n = Reducer.Words()),
// in [0, m) and laid out by Reducer.Limbs, and its exponent in accs[c] is
// exps[c][i]. A zero exponent contributes nothing and costs nothing; a row
// costs one multiplication per non-zero digit that lands in an occupied
// bucket, and nothing else.
//
// The (accumulator, window) bucket arrays the chunk's exponents reach are
// dealt to up to lanes lanes (Deal), each taken whole by one lane, which walks
// every row for it. Every bucket therefore takes its rows in the same order
// on any number of lanes (row order, except that on the lane kernel a row may
// wait for a later lane call), and the products and the multiplication count
// are those of one lane. Lane 0 runs on the caller, the others on goroutines
// that have all returned when AddChunk does.
func AddChunk(accs []*MultiExpAcc, limbs []big.Word, exps [][]uint64, lanes int) {
	if len(accs) == 0 {
		return
	}
	n := accs[0].red.n
	rows := len(limbs) / n
	if len(limbs) != rows*n || len(exps) != len(accs) {
		panic("mathx: AddChunk: limbs are not whole rows, or not one exponent column per accumulator")
	}
	pairs := 0
	for c, a := range accs {
		if a.red.n != n || len(exps[c]) != rows {
			panic("mathx: AddChunk: an accumulator's modulus or exponent count differs from the chunk's")
		}
		var reach, carry uint64
		for _, e := range exps[c] {
			a.expLo, carry = bits.Add64(a.expLo, e, 0)
			a.expHi += carry
			reach |= e
		}
		a.reach = (bits.Len64(reach) + int(a.w) - 1) / int(a.w)
		pairs += a.reach
	}
	for _, a := range accs {
		a.growLanes(min(lanes, pairs))
	}
	// On the lane kernel the chunk's rows are converted to limbs once,
	// before the windows start, and only read while they fold.
	var rowLimbs []uint64
	if a := accs[0]; a.lwin != nil && pairs > 0 {
		L := a.red.laneLimbs
		a.rows = slices.Grow(a.rows[:0], rows*L)[:rows*L]
		for i := range rows {
			toLimbs(a.rows[i*L:(i+1)*L], limbs[i*n:(i+1)*n])
		}
		rowLimbs = a.rows
	}
	// Pair p is window p of the first accumulator while p is below its reach,
	// then the next accumulator's windows, and so on.
	Deal(lanes, pairs, func(l, p int) {
		for c, a := range accs {
			if p < a.reach {
				if a.lwin != nil {
					a.foldWindowLanes(p, rowLimbs, exps[c], &a.lanes[l])
				} else {
					a.foldWindow(p, limbs, exps[c], &a.lanes[l])
				}
				return
			}
			p -= a.reach
		}
	})
}

// Deal calls do(l, p) once for every p in [0, pairs) on up to
// max(1, min(lanes, pairs)) lanes. Each lane takes the lowest pair no lane
// has taken yet, so a lane whose core is late or taken away leaves its share
// to the others instead of holding them up: the call lasts as long as the
// work, not as long as the slowest lane's fixed share of it. Lane 0 runs on
// the caller, the others on goroutines that have all returned when Deal does.
func Deal(lanes, pairs int, do func(lane, pair int)) {
	lanes = max(1, min(lanes, pairs))
	if lanes == 1 {
		for p := range pairs {
			do(0, p)
		}
		return
	}
	dealLanes(lanes, pairs, do)
}

// dealLanes is Deal on more than one lane, apart from it so that one lane
// allocates nothing of its own.
func dealLanes(lanes, pairs int, do func(lane, pair int)) {
	d := &dealer{pairs: pairs, do: do}
	d.wg.Add(lanes - 1)
	for l := 1; l < lanes; l++ {
		go func() {
			defer d.wg.Done()
			d.take(l)
		}()
	}
	d.take(0)
	d.wg.Wait()
}

// dealer is the state the lanes of one Deal share.
type dealer struct {
	next  atomic.Int64 // the lowest pair no lane has taken
	pairs int
	do    func(lane, pair int)
	wg    sync.WaitGroup
}

// take runs pairs on lane l until none is left.
func (d *dealer) take(l int) {
	for p := int(d.next.Add(1) - 1); p < d.pairs; p = int(d.next.Add(1) - 1) {
		d.do(l, p)
	}
}

// foldWindow multiplies window j's digit of every row's exponent into its
// bucket, in row order, on lane l.
func (a *MultiExpAcc) foldWindow(j int, limbs []big.Word, exps []uint64, l *accLane) {
	n := a.red.n
	shift, mask := uint(j)*a.w, uint64(1)<<a.w-1
	win := a.windows[j]
	for i, e := range exps {
		d := e >> shift & mask
		if d == 0 {
			continue
		}
		if win == nil {
			win = make([][]big.Word, mask)
			a.windows[j] = win
		}
		base := limbs[i*n : (i+1)*n]
		if b := win[d-1]; b != nil {
			a.mul(l, b, b, base)
		} else {
			win[d-1] = append(make([]big.Word, 0, n), base...)
		}
	}
}

// Results returns, for every accumulator of accs, the product of everything
// added so far, in [0, m). The accumulators must share one Reducer, as
// AddChunk's do. The running-sum combine of the occupied windows is dealt to
// up to lanes lanes, as AddChunk deals its windows; on the lane kernel it
// runs eight running sums per lane call (combineLanes). The shift squarings
// and the closing factor, about a hundred multiplications per accumulator,
// stay on the caller. The products and the multiplication count are those
// of one lane. The accumulators are left unchanged, so more rows may follow.
func Results(accs []*MultiExpAcc, lanes int) []*big.Int {
	out := make([]*big.Int, len(accs))
	if len(accs) == 0 {
		return out
	}
	red, windows := accs[0].red, 0
	for _, a := range accs {
		if a.red != red {
			panic("mathx: Results: the accumulators do not share one Reducer")
		}
		windows += a.windowCount()
	}
	// Each accumulator's combined windows, n words apiece, back to back.
	combined := make([]big.Word, windows*red.n)
	base := red.rr
	if accs[0].lwin != nil {
		combineLanes(accs, combined, windows, lanes)
		base = red.lanes().rlMont
	} else {
		combineChains(accs, combined, windows, lanes)
	}
	for c, a := range accs {
		k := a.windowCount() * red.n
		out[c] = a.horner(combined[:k], base)
		combined = combined[k:]
	}
	return out
}

// combineChains sets each occupied window's n words of combined to its
// combine on the chain kernel, the windows dealt to up to lanes lanes.
func combineChains(accs []*MultiExpAcc, combined []big.Word, windows, lanes int) {
	type pair struct {
		a   *MultiExpAcc
		j   int
		dst []big.Word
	}
	n := accs[0].red.n
	pairs := make([]pair, 0, windows)
	for _, a := range accs {
		for j := range a.windowCount() {
			if a.occupied(j) {
				pairs = append(pairs, pair{a, j, combined[j*n : (j+1)*n]})
			}
		}
		combined = combined[a.windowCount()*n:]
	}
	for _, a := range accs {
		a.growLanes(min(lanes, len(pairs)))
	}
	Deal(lanes, len(pairs), func(l, p int) {
		a := pairs[p].a
		a.combine(pairs[p].j, pairs[p].dst, &a.lanes[l])
	})
}

// combine sets dst to window j's Π_d bucket[d]^d by a running sum, scanning
// from the top bucket down: one multiplication per occupied bucket and one
// per digit below the highest occupied one.
func (a *MultiExpAcc) combine(j int, dst []big.Word, l *accLane) {
	running := l.run
	haveRunning, haveAcc := false, false
	for d := 1<<a.w - 1; d >= 1; d-- {
		if b := a.windows[j][d-1]; b != nil {
			if haveRunning {
				a.mul(l, running, running, b)
			} else {
				copy(running, b)
				haveRunning = true
			}
		}
		if !haveRunning {
			continue
		}
		if haveAcc {
			a.mul(l, dst, dst, running)
		} else {
			copy(dst, running)
			haveAcc = true
		}
	}
}

// horner joins the combined windows, top down with w squarings between them,
// and multiplies the closing factor back in, on lane 0: the domain's R^Σexp,
// raised from base, its R in montMul's form (rr on the chain kernel,
// laneConsts.rlMont on the lanes).
func (a *MultiExpAcc) horner(combined, base []big.Word) *big.Int {
	n, l := a.red.n, &a.lanes[0]
	result := make([]big.Word, n)
	haveResult := false
	for j := a.windowCount() - 1; j >= 0; j-- {
		if haveResult {
			// Shift the higher windows' product up by one window.
			for s := uint(0); s < a.w; s++ {
				a.mul(l, result, result, result)
			}
		}
		if !a.occupied(j) {
			continue
		}
		if win := combined[j*n : (j+1)*n]; haveResult {
			a.mul(l, result, result, win)
		} else {
			copy(result, win)
			haveResult = true
		}
	}
	if !haveResult {
		// Nothing but zero exponents: the empty product, 1 mod m.
		return new(big.Int).Mod(One, a.red.m)
	}
	// result is the Montgomery form of the product over R^Σexp. Multiply by
	// the Montgomery form of R^Σexp, by square and multiply from base down
	// the bits of the 128-bit sum, and convert out.
	factor := l.run
	copy(factor, base)
	top := bits.Len64(a.expLo)
	if a.expHi != 0 {
		top = 64 + bits.Len64(a.expHi)
	}
	for i := top - 2; i >= 0; i-- {
		a.mul(l, factor, factor, factor)
		word, off := a.expLo, i
		if i >= 64 {
			word, off = a.expHi, i-64
		}
		if word>>off&1 == 1 {
			a.mul(l, factor, factor, base)
		}
	}
	a.mul(l, result, result, factor)
	l.muls++ // montOut's
	return a.red.montOut(result, l.t)
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
// below the top, are paid once. So is the part of Results no width changes:
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
// words, or, for a modulus the lanes may take, its limbs and a flag if that
// is more (161 bytes against 152 at 1024 bits, 321 against 280 at 2048),
// whatever the CPU.
func bucketStateBytes(m *big.Int, w uint) int64 {
	const wordBytes = bits.UintSize / 8
	perBucket := int64((3 + len(m.Bits())) * wordBytes)
	if limbs := laneLimbsFor(m.BitLen()); limbs != 0 {
		perBucket = max(perBucket, int64(8*limbs+1))
	}
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

// MultiExpParallel is MultiExp with the fold and the combine on up to workers
// lanes, split by window (AddChunk): the result, and the multiplications
// spent on it, are those of MultiExp.
func MultiExpParallel(bases []*big.Int, exps []uint64, m *big.Int, window uint, workers int) (*big.Int, error) {
	red, err := newOddReducer(m)
	if err != nil {
		return nil, err
	}
	maxBits, err := multiExpCheck(bases, exps, window)
	if err != nil {
		return nil, err
	}
	if window == 0 {
		window = autoWindow(m, len(bases), maxBits)
	}
	n := red.n
	limbs := make([]big.Word, len(bases)*n)
	var reduced big.Int
	for i, b := range bases {
		if b.Sign() < 0 || b.Cmp(m) >= 0 {
			b = reduced.Mod(b, m)
		}
		red.Limbs(limbs[i*n:(i+1)*n], b)
	}
	accs := []*MultiExpAcc{red.newAcc(window)}
	AddChunk(accs, limbs, [][]uint64{exps}, workers)
	return Results(accs, workers)[0], nil
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
