package mathx

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"
	"slices"
)

// Batch is rows on their way into a bucket fold: each row a base in [0, m),
// held in the layout its fold reads, radix-2^52 limbs on the lane kernel and
// words on the chain kernel, with its exponent in each accumulator. Add
// converts a row's big-endian bytes straight into that layout, in one pass:
// a row is never a big.Int on the way. Batches come from a pool on their
// Reducer and go back to it with Release, so a fold in steady state
// allocates no storage for its rows.
type Batch struct {
	red   *Reducer
	words []big.Word // the rows on the chain kernel, Words() apiece
	limbs []uint64   // the rows on the lane kernel, laneLimbs apiece
	exps  [][]uint64 // exps[c][i] is row i's exponent in accumulator c
}

// NewBatch returns an empty batch for folds into columns accumulators of
// this Reducer, from its pool.
func (r *Reducer) NewBatch(columns int) *Batch {
	b := r.getBatch()
	b.exps = slices.Grow(b.exps[:0], columns)[:columns]
	b.reset()
	return b
}

// getBatch returns a batch of r from its pool, its rows empty.
func (r *Reducer) getBatch() *Batch {
	b, _ := r.batches.Get().(*Batch)
	if b == nil {
		b = &Batch{red: r}
	}
	b.words, b.limbs = b.words[:0], b.limbs[:0]
	return b
}

// reset empties the batch's rows and exponent columns, keeping their
// storage.
func (b *Batch) reset() {
	b.words, b.limbs = b.words[:0], b.limbs[:0]
	for c := range b.exps {
		b.exps[c] = b.exps[c][:0]
	}
}

// Release returns the batch to its Reducer's pool. It is the batch's last
// call.
func (b *Batch) Release() { b.red.batches.Put(b) }

// Len returns the rows the batch holds.
func (b *Batch) Len() int {
	if L := b.red.laneLimbs; L != 0 {
		return len(b.limbs) / L
	}
	return len(b.words) / b.red.n
}

// InRange reports whether be is the (bitLen+7)/8-byte big-endian encoding
// of a value in (0, m). It reads the bytes alone: nothing is decoded.
func (r *Reducer) InRange(be []byte) bool {
	if len(be) != len(r.mbe) || bytes.Compare(be, r.mbe) >= 0 {
		return false
	}
	for _, c := range be {
		if c != 0 {
			return true
		}
	}
	return false
}

// Add appends a chunk of rows to the batch: rows holds their big-endian
// encodings back to back, (bitLen+7)/8 bytes apiece, each a value below m
// (InRange), and exps one exponent column per accumulator, one exponent per
// row. Neither is read after the call.
func (b *Batch) Add(rows []byte, exps [][]uint64) {
	r, width := b.red, len(b.red.mbe)
	count := len(rows) / width
	if len(rows) != count*width || len(exps) != len(b.exps) {
		panic("mathx: Batch.Add: rows are not whole encodings, or not one exponent column per accumulator")
	}
	for c := range exps {
		if len(exps[c]) != count {
			panic("mathx: Batch.Add: an exponent column's length differs from the rows'")
		}
		b.exps[c] = append(b.exps[c], exps[c]...)
	}
	if L := r.laneLimbs; L != 0 {
		at := len(b.limbs)
		b.limbs = slices.Grow(b.limbs, count*L)[:at+count*L]
		for i := range count {
			bytesToLimbs(b.limbs[at+i*L:at+(i+1)*L], rows[i*width:(i+1)*width])
		}
		return
	}
	n, at := r.n, len(b.words)
	b.words = slices.Grow(b.words, count*n)[:at+count*n]
	for i := range count {
		bytesToWords(b.words[at+i*n:at+(i+1)*n], rows[i*width:(i+1)*width])
	}
}

// Fold folds every row of the batch into accs, which share the batch's
// Reducer, on up to lanes goroutines, as AddChunk does, and empties the
// batch.
func (b *Batch) Fold(accs []*MultiExpAcc, lanes int) {
	if len(accs) != len(b.exps) {
		panic("mathx: Batch.Fold: not one accumulator per exponent column")
	}
	for _, a := range accs {
		if a.red != b.red {
			panic("mathx: Batch.Fold: an accumulator's Reducer is not the batch's")
		}
	}
	foldRows(accs, b.words, b.limbs, b.exps, b.Len(), lanes)
	b.reset()
}

// beWord returns bits [64k, 64k+64) of the big-endian be, zero past its top.
func beWord(be []byte, k int) uint64 {
	end := len(be) - 8*k
	if end >= 8 {
		return binary.BigEndian.Uint64(be[end-8 : end])
	}
	var v uint64
	for _, c := range be[:max(end, 0)] {
		v = v<<8 | uint64(c)
	}
	return v
}

// bytesToLimbs sets dst to the low len(dst) radix-2^52 limbs of the
// big-endian be, two limbs from each 13 bytes, read from the end of be.
func bytesToLimbs(dst []uint64, be []byte) {
	end, j := len(be), 0
	for ; j+1 < len(dst) && end >= 13; j, end = j+2, end-13 {
		lo := binary.BigEndian.Uint64(be[end-8 : end])
		hi := uint64(be[end-13])<<32 | uint64(binary.BigEndian.Uint32(be[end-12:end-8]))
		dst[j], dst[j+1] = lo&limbMask, (lo>>limbBits|hi<<(64-limbBits))&limbMask
	}
	// What is left: fewer than 13 bytes, or room for one limb.
	rest := be[max(end-13, 0):end]
	var lo, hi uint64
	for _, c := range rest[:max(len(rest)-8, 0)] {
		hi = hi<<8 | uint64(c)
	}
	for _, c := range rest[max(len(rest)-8, 0):] {
		lo = lo<<8 | uint64(c)
	}
	for _, limb := range [2]uint64{lo & limbMask, (lo>>limbBits | hi<<(64-limbBits)) & limbMask} {
		if j < len(dst) {
			dst[j] = limb
			j++
		}
	}
	clear(dst[j:])
}

// bytesToWords sets dst to the low len(dst) words of the big-endian be.
func bytesToWords(dst []big.Word, be []byte) {
	if bits.UintSize == 64 {
		for k := range dst {
			dst[k] = big.Word(beWord(be, k))
		}
		return
	}
	for k := range dst {
		dst[k] = big.Word(beWord(be, k/2) >> (32 * (k % 2)))
	}
}
