package mathx

import "math/big"

// The bucket fold on the lane kernel. Where the Reducer has one (Lanes() ==
// 8), an accumulator keeps its buckets as radix-2^52 limbs below 2m and
// multiplies eight rows into eight different buckets per laneMul10,
// laneMul20 or laneMul40 call: the multi-buffer method of the seals
// (lanes.go), fed by the independence of a Pippenger fold's products.
// Products into different buckets do not depend on one another, and
// products into one bucket commute, so a row whose bucket is already in the
// open group waits for a later one and the buckets end up with the same
// residues as on the chain kernel.
//
// The accumulator stays in the lanes' own Montgomery domain, R_L =
// 2^(52·limbs), from the first row to the combined windows. A row goes in
// as its limbs and stands for b/R_L, so every lane product is an exact
// R_L-Montgomery product and a bucket of c rows stands for Π b_i / R_L^c.
// Results runs the running sums of every occupied window on the lanes as
// well (combineLanes), moves each combined window into montMul's domain
// with one lane product by b^n mod m, and joins the windows on the chain
// kernel in horner, whose closing factor is R_L^Σx where the chain
// kernel's is R^Σx.
//
// The words "lane" and "lanes" mean two things here. AddChunk and Results
// deal windows to Deal lanes, goroutines; a laneGroup fills the eight SIMD
// lanes of a ZMM register with products of one window, a combine with the
// running sums of up to eight windows or pieces of windows.

// laneWindow is one window's buckets on the lane kernel: bucket d−1 is
// limbs[(d−1)·L : d·L], L = the kernel's limbs, and holds a row once full[d−1]
// is set. A window is taken from its Reducer's pool at its first non-zero
// digit (getWindow) and given back by Release. full is cleared when it is
// taken; the limbs are not, as full guards every read of them.
type laneWindow struct {
	limbs []uint64
	full  []bool
}

// getWindow returns a window of buckets buckets on r's lane kernel, every one
// empty: one from the pool where it has one, and room for its buckets where
// the window has too little.
func (r *Reducer) getWindow(buckets int) *laneWindow {
	win, _ := r.windows.Get().(*laneWindow)
	if win == nil {
		win = new(laneWindow)
	}
	L := r.laneLimbs
	if cap(win.limbs) < buckets*L || cap(win.full) < buckets {
		win.limbs, win.full = make([]uint64, buckets*L), make([]bool, buckets)
	}
	win.limbs, win.full = win.limbs[:buckets*L], win.full[:buckets]
	clear(win.full)
	return win
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
	buckets []uint64            // the window's bucket limbs
	rows    []uint64            // the chunk's rows, limbs apiece
	x, y, z laneNum             // x and y are a lane call's operands; combine uses all three
	open    [2][laneCount]int64 // the open pairs' bucket and row offsets
	wait    [laneCount]lanePair
	nOpen   int
	nWait   int
}

// init puts an empty group on the kernel of c, its operands at the kernel's
// width and aligned to a cache line: the one allocation a group makes, as
// its accLane holds it by value.
func (g *laneGroup) init(c *laneConsts) {
	L := c.limbs
	ops := alignedRows(make([]laneRow, 3*L+1), 3*L)
	*g = laneGroup{c: c, limbs: L, x: ops[:L:L], y: ops[L : 2*L : 2*L], z: ops[2*L:]}
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
		laneGather(&g.x[0], &g.buckets[0], &g.open[0], g.nOpen, g.limbs)
		laneGather(&g.y[0], &g.rows[0], &g.open[1], g.nOpen, g.limbs)
		g.c.mul(g.x, g.x, g.y)
		laneScatter(&g.buckets[0], &g.open[0], &g.x[0], g.nOpen, g.limbs)
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

// foldWindowLanes is foldWindow on the lane kernel: rows holds the chunk's
// rows as limbs, L apiece.
func (a *MultiExpAcc) foldWindowLanes(j int, rows []uint64, exps []uint64, l *accLane) {
	L := a.red.laneLimbs
	shift, mask := uint(j)*a.w, uint64(1)<<a.w-1
	win, g := a.lwin[j], &l.group
	g.rows = rows
	if win != nil {
		g.buckets = win.limbs
	}
	for i, e := range exps {
		d := e >> shift & mask
		if d == 0 {
			continue
		}
		if win == nil {
			win = a.red.getWindow(int(mask))
			a.lwin[j], g.buckets = win, win.limbs
		}
		b := int(d - 1)
		if !win.full[b] {
			copy(win.limbs[b*L:(b+1)*L], rows[i*L:(i+1)*L])
			win.full[b] = true
			continue
		}
		l.muls += g.add(lanePair{int64(8 * b * L), int64(8 * i * L)})
	}
	for g.nOpen > 0 {
		l.muls += g.flush()
	}
}

// laneSeg is one running sum of the lane combine: buckets lo through hi of
// a window whose combined value goes to dst. A window is one segment, or
// several when that fills the lanes better (splitSegs).
type laneSeg struct {
	win    *laneWindow
	lo, hi int
	dst    []big.Word
}

// combineLanes sets each occupied window's n words of combined (every
// accumulator's windows back to back) to Π_d bucket[d]^d in montMul's
// domain, as combine does on the chain kernel: the running sums of eight
// segments step side by side, one bucket per pair of lane calls, and the
// batches of eight are dealt to up to lanes lanes. The segments, and so
// the products, are the same on any number of lanes. It counts the
// multiplications the chain kernel's combine executes for the same
// buckets; the lanes' own products are not counted.
func combineLanes(accs []*MultiExpAcc, combined []big.Word, windows, lanes int) {
	red, n := accs[0].red, accs[0].red.n
	segs := make([]laneSeg, 0, laneCount*((windows+laneCount-1)/laneCount))
	for _, a := range accs {
		for j, win := range a.lwin {
			if win == nil {
				continue
			}
			dst := combined[j*n : (j+1)*n]
			top, occupied := 0, 0
			for d, full := range win.full {
				if full {
					top = d + 1
					occupied++
				}
			}
			a.lanes[0].muls += occupied - 1 + top - 1
			segs = append(segs, laneSeg{win: win, lo: 1, hi: top, dst: dst})
		}
		combined = combined[a.windowCount()*n:]
	}
	segs = splitSegs(segs)
	batches := (len(segs) + laneCount - 1) / laneCount
	a := accs[0]
	a.growLanes(min(lanes, batches))
	// out[2i·n:(2i+1)·n] is segment i's acc, the n words after it its running
	// sum, both in montMul's domain.
	out := make([]big.Word, 2*n*len(segs))
	Deal(lanes, batches, func(l, b int) {
		lo, hi := b*laneCount, min((b+1)*laneCount, len(segs))
		a.lanes[l].group.combine(red, segs[lo:hi], out[2*n*lo:])
	})
	// A segment from lo joins its window as acc · running^(lo−1); a
	// window's segments are consecutive, the one from bucket 1 first.
	t, p := a.lanes[0].t, a.lanes[0].run
	for i, s := range segs {
		acc := out[2*i*n : (2*i+1)*n]
		if s.lo == 1 {
			copy(s.dst, acc)
			continue
		}
		red.montPow(p, out[(2*i+1)*n:(2*i+2)*n], uint(s.lo-1), t)
		red.montMul(acc, acc, p, t)
		red.montMul(s.dst, s.dst, acc, t)
	}
}

// splitSegs cuts the windows' segments, one per window, into pieces of at
// most size buckets and returns them in order, a window's pieces together
// from its bottom one up. size is the least that keeps the pieces within
// the batches of eight the windows need anyway, laneCount·⌈windows/
// laneCount⌉, which segs must have room for: a batch costs two lane calls
// per bucket of its longest piece, so it shortens the batches until they
// are full. The pieces depend on the buckets alone.
func splitSegs(segs []laneSeg) []laneSeg {
	longest := 0
	for _, s := range segs {
		longest = max(longest, s.hi)
	}
	room := laneCount * ((len(segs) + laneCount - 1) / laneCount)
	best, bestPieces := longest, len(segs)
	for size := longest - 1; size >= 1; size-- {
		pieces := 0
		for _, s := range segs {
			pieces += (s.hi + size - 1) / size
		}
		if pieces > room {
			break
		}
		best, bestPieces = size, pieces
	}
	// Pieces go in from the back, so a window's segment is read before its
	// slot is written.
	split, at := segs[:bestPieces], bestPieces
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		q := (s.hi + best - 1) / best
		for p := q - 1; p >= 0; p-- {
			at--
			split[at] = laneSeg{win: s.win, lo: 1 + p*s.hi/q, hi: (p + 1) * s.hi / q, dst: s.dst}
		}
	}
	return split
}

// combine runs the running sums of segs, at most eight, side by side: lane
// k of run and acc holds segs[k]'s. Every segment steps top down in step
// with the longest, the shorter ones, and lanes with none, multiplying by
// r1 until their buckets start, and an empty bucket multiplies by r1 too.
// Each step multiplies run by the bucket and acc by the run of the step
// before, so acc ends as Π_{d=lo..hi} bucket[d]^(d−lo+1). It writes segment
// k's acc and running sum, in montMul's domain and reduced into [0, m), to
// out[2k·n:(2k+1)·n] and the n words after.
func (g *laneGroup) combine(red *Reducer, segs []laneSeg, out []big.Word) {
	c, L, n := g.c, g.limbs, red.n
	run, acc, b := g.x, g.y, g.z
	copy(run, c.r1)
	copy(acc, c.r1)
	// rows[k] is the bucket lane k multiplies in, or r1.
	var rows [laneCount]*uint64
	for k := range rows {
		rows[k] = &c.r1Row[0]
	}
	steps := 0
	for _, s := range segs {
		steps = max(steps, s.hi-s.lo+1)
	}
	for t := range steps {
		for k, s := range segs {
			rows[k] = &c.r1Row[0]
			if d := s.lo + steps - 1 - t; d <= s.hi && s.win.full[d-1] {
				rows[k] = &s.win.limbs[(d-1)*L]
			}
		}
		laneLoad(&b[0], &rows, L)
		if t > 0 {
			c.mul(acc, acc, run)
		}
		c.mul(run, run, b)
	}
	c.mul(acc, acc, run)
	c.mul(acc, acc, c.toMont)
	c.mul(run, run, c.toMont)
	for k := range segs {
		red.readLane(out[2*k*n:(2*k+1)*n], acc, k)
		red.readLane(out[(2*k+1)*n:(2*k+2)*n], run, k)
	}
}

// readLane sets z, n words, to lane k of x, a value below 2m, reduced into
// [0, m).
func (r *Reducer) readLane(z []big.Word, x laneNum, k int) {
	var buf [maxKernelWords + 1]big.Word
	n := r.n
	x.get(k, buf[:n+1])
	// Below 2m: one subtraction, when the top word or the borrow says the
	// value is at least m.
	if subVV(z, buf[:n], r.mw) != 0 && buf[n] == 0 {
		copy(z, buf[:n])
	}
}
