package mathx

import "math/big"

// The bucket fold on the lane kernel. Where the Reducer has one (Lanes() ==
// 8), an accumulator keeps its buckets as radix-2^52 limbs below 2m and
// multiplies eight rows into eight different buckets per laneMul10 or
// laneMul20 call: the multi-buffer method of the seals (lanes.go), fed by
// the independence of a Pippenger fold's products. Products into different
// buckets do not depend on one another, and products into one bucket
// commute, so a row whose bucket is already in the open group waits for a
// later one and the buckets end up with the same residues as on the chain
// kernel.
//
// The lanes leave a factor 2^(−52·limbs) on each product where montMul
// leaves b^(−n). A bucket's first row is copied in unconverted, as on the
// chain kernel, and every later row is multiplied in scaled by
// 2^s = 2^(52·limbs − W·n) mod m, so each product carries b^(−n) and the
// buckets mean what montMul's mean: combine, horner and the R^Σexp factor
// read them through bucket and are the same code on both kernels.
//
// The words "lane" and "lanes" mean two things here. AddChunk deals the
// windows to Deal lanes, goroutines, each folding whole windows; within
// one window a laneGroup fills the eight SIMD lanes of a ZMM register.

// laneWindow is one window's buckets on the lane kernel: bucket d−1 is
// limbs[(d−1)·L : d·L], L = the kernel's limbs, and holds a row once full[d−1]
// is set. Both are nil until the window's first non-zero digit.
type laneWindow struct {
	limbs []uint64
	full  []bool
}

// lanePair is a product waiting for a lane: a row of the chunk into a bucket
// of the window, each as its byte offset into the limb arrays.
type lanePair struct{ bucket, row int64 }

// laneGroup is one Deal lane's lane calls for the window it folds: up to
// eight pairs whose buckets all differ, open, and up to eight that wait
// because their bucket is already open.
type laneGroup struct {
	c       *laneConsts
	limbs   int
	buckets []uint64 // the window's bucket limbs
	rows    []uint64 // the chunk's scaled rows, limbs apiece
	x, y    laneNum
	open    [2][laneCount]int64 // the open pairs' bucket and row offsets
	wait    [laneCount]lanePair
	nOpen   int
	nWait   int
}

// add queues a product and returns the products that multiplied meanwhile.
func (g *laneGroup) add(p lanePair) int {
	done := 0
	for g.has(p.bucket) {
		if g.nWait < laneCount {
			g.wait[g.nWait] = p
			g.nWait++
			return done
		}
		done += g.flush()
	}
	g.push(p)
	if g.nOpen == laneCount {
		done += g.flush()
	}
	return done
}

// push opens p; the group has room and p's bucket is not in it.
func (g *laneGroup) push(p lanePair) {
	g.open[0][g.nOpen], g.open[1][g.nOpen] = p.bucket, p.row
	g.nOpen++
}

// has reports whether the bucket at byte offset b is in the open group.
func (g *laneGroup) has(b int64) bool {
	for _, o := range g.open[0][:g.nOpen] {
		if o == b {
			return true
		}
	}
	return false
}

// flush multiplies the open group into its buckets in one lane call, then
// opens the next group with the waiting rows whose buckets differ, flushing
// again while that fills it. It returns the products.
func (g *laneGroup) flush() int {
	done := 0
	for g.nOpen > 0 {
		laneGather(&g.x, &g.buckets[0], &g.open[0], g.nOpen, g.limbs)
		laneGather(&g.y, &g.rows[0], &g.open[1], g.nOpen, g.limbs)
		g.c.mul(&g.x, &g.x, &g.y)
		laneScatter(&g.buckets[0], &g.open[0], &g.x, g.nOpen, g.limbs)
		done += g.nOpen
		g.nOpen = 0
		kept := 0
		for _, p := range g.wait[:g.nWait] {
			if g.has(p.bucket) {
				g.wait[kept] = p
				kept++
			} else {
				g.push(p)
			}
		}
		g.nWait = kept
		if g.nOpen < laneCount {
			break
		}
	}
	return done
}

// scaleRows sets rows[i·L : (i+1)·L] to the limbs of row i of the chunk
// words, times 2^s mod m (below 2m), eight rows per lane call.
func (r *Reducer) scaleRows(rows []uint64, words []big.Word) {
	c, L, n := r.lanes(), r.laneLimbs, r.n
	count := len(words) / n
	for i := range count {
		toLimbs(rows[i*L:(i+1)*L], words[i*n:(i+1)*n])
	}
	var x laneNum
	var offs [laneCount]int64
	for lo := 0; lo < count; lo += laneCount {
		k := min(count-lo, laneCount)
		for l := range offs {
			offs[l] = int64(8 * (lo + l) * L)
		}
		laneGather(&x, &rows[0], &offs, k, L)
		c.mul(&x, &x, &c.scale)
		laneScatter(&rows[0], &offs, &x, k, L)
	}
}

// foldWindowLanes is foldWindow on the lane kernel: rows holds the chunk's
// scaled rows (scaleRows), words its bases as AddChunk takes them.
func (a *MultiExpAcc) foldWindowLanes(j int, words []big.Word, rows []uint64, exps []uint64, l *accLane) {
	n, L := a.red.n, a.red.laneLimbs
	shift, mask := uint(j)*a.w, uint64(1)<<a.w-1
	win, g := &a.lwin[j], l.group
	g.buckets, g.rows = win.limbs, rows
	for i, e := range exps {
		d := e >> shift & mask
		if d == 0 {
			continue
		}
		if win.limbs == nil {
			win.limbs, win.full = make([]uint64, int(mask)*L), make([]bool, mask)
			g.buckets = win.limbs
		}
		b := int(d - 1)
		if !win.full[b] {
			toLimbs(win.limbs[b*L:(b+1)*L], words[i*n:(i+1)*n])
			win.full[b] = true
			continue
		}
		l.muls += g.add(lanePair{int64(8 * b * L), int64(8 * i * L)})
	}
	for g.nOpen > 0 {
		l.muls += g.flush()
	}
}

// laneBucket reads window j's bucket d−1 into buf (n+1 words) reduced into
// [0, m) and returns its n words, or nil while the bucket is empty.
func (a *MultiExpAcc) laneBucket(j, d int, buf []big.Word) []big.Word {
	win, L, n := &a.lwin[j], a.red.laneLimbs, a.red.n
	if !win.full[d-1] {
		return nil
	}
	fromLimbs(buf, win.limbs[(d-1)*L:d*L])
	// Below 2m: one subtraction, when the top word or the borrow says the
	// value is at least m.
	var t [maxKernelWords]big.Word
	if subVV(t[:n], buf[:n], a.red.mw) == 0 || buf[n] != 0 {
		copy(buf, t[:n])
	}
	return buf[:n]
}
