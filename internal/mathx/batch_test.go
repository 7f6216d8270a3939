package mathx

import (
	"bytes"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// batchModuli are odd moduli the lane kernel takes at ten, twenty and forty
// limbs, each at its width's top and one bit short of it (an encoding whose
// top byte has a spare bit), from a fixed seed.
func batchModuli() []*big.Int {
	rng := rand.New(rand.NewSource(46))
	var ms []*big.Int
	for _, bitLen := range []int{512, 511, 1024, 1023, 2048, 2047} {
		m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bitLen)))
		m.SetBit(m, bitLen-1, 1)
		m.SetBit(m, 0, 1)
		ms = append(ms, m)
	}
	return ms
}

// checkBatchRow compares the batch's handling of be, as one row of a chunk,
// with SetBytes, Cmp and the words the fold read before rows arrived as
// bytes: InRange against (0, m) on an encoding of the modulus' width, and Add
// against toLimbs of the value's words on the lane kernel and against
// Reducer.Limbs on the chain kernel, row after row.
func checkBatchRow(t *testing.T, red *Reducer, be []byte) {
	t.Helper()
	v := new(big.Int).SetBytes(be)
	want := len(be) == len(red.mbe) && v.Sign() > 0 && v.Cmp(red.m) < 0
	if got := red.InRange(be); got != want {
		t.Fatalf("%d-bit modulus, %d bytes %x: InRange = %v, want %v", red.m.BitLen(), len(be), be, got, want)
	}
	if !want {
		return
	}
	// be is row 1, after m−1: a decoder that leaves a limb of a row
	// unwritten shows the row before's.
	first := new(big.Int).Sub(red.m, One)
	b := red.NewBatch(1)
	defer b.Release()
	b.Add(append(first.FillBytes(make([]byte, len(red.mbe))), be...), [][]uint64{{1, 2}})
	if b.Len() != 2 {
		t.Fatalf("batch holds %d rows, want 2", b.Len())
	}
	if L := red.laneLimbs; L != 0 {
		wantLimbs := make([]uint64, L)
		toLimbs(wantLimbs, v.Bits())
		if got := b.limbs[L:]; !slices.Equal(got, wantLimbs) {
			t.Fatalf("%d-bit modulus, %x: limbs %x, want %x", red.m.BitLen(), be, got, wantLimbs)
		}
		return
	}
	n := red.Words()
	if got, wantWords := b.words[n:], red.Limbs(nil, v); !slices.Equal(got, wantWords) {
		t.Fatalf("%d-bit modulus, %x: words %x, want %x", red.m.BitLen(), be, got, wantWords)
	}
}

// FuzzBatchBytes checks the bytes-to-limbs path of the fold bit for bit
// against the big.Int route it replaced, at ten, twenty and forty limbs and
// on the chain kernel (ForceFallback): the range check on the bytes alone
// and the conversion of a row into the layout its kernel reads. The input's
// first byte picks a modulus and the kernel, the rest is the encoding.
func FuzzBatchBytes(f *testing.F) {
	ms := batchModuli()
	for i, m := range ms {
		width := (m.BitLen() + 7) / 8
		for _, kernel := range []byte{0, 1} {
			pick := byte(i)<<1 | kernel
			enc := func(x *big.Int) []byte {
				if x.BitLen() > 8*width {
					return append([]byte{pick}, x.Bytes()...)
				}
				return append([]byte{pick}, x.FillBytes(make([]byte, width))...)
			}
			f.Add(enc(big.NewInt(0)))
			f.Add(enc(big.NewInt(1)))
			f.Add(enc(new(big.Int).Sub(m, One)))
			f.Add(enc(m))
			f.Add(enc(new(big.Int).Add(m, One)))
			f.Add(append([]byte{pick}, bytes.Repeat([]byte{0xff}, width)...))
			f.Add(append([]byte{pick}, bytes.Repeat([]byte{0x01}, width-1)...))  // too short
			f.Add(append([]byte{pick, 0}, bytes.Repeat([]byte{0x01}, width)...)) // too long
		}
	}
	lanes := make([]*Reducer, len(ms))
	chain := make([]*Reducer, len(ms))
	for i, m := range ms {
		var err error
		if lanes[i], err = NewReducer(m); err != nil {
			f.Fatal(err)
		}
		restore := ForceFallback()
		chain[i], err = NewReducer(m)
		restore()
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		i := int(in[0]>>1) % len(ms)
		red := lanes[i]
		if in[0]&1 == 1 {
			red = chain[i]
		}
		checkBatchRow(t, red, in[1:])
	})
}

// TestBatchBytesEdges runs the fuzz target's edge cases on every modulus and
// kernel, and random values below each modulus.
func TestBatchBytesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, m := range batchModuli() {
		for _, fallback := range []bool{false, true} {
			restore := func() {}
			if fallback {
				restore = ForceFallback()
			}
			red, err := NewReducer(m)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			width := len(red.mbe)
			edges := [][]byte{
				make([]byte, width),
				bytes.Repeat([]byte{0xff}, width),
				m.FillBytes(make([]byte, width)),
				new(big.Int).Sub(m, One).FillBytes(make([]byte, width)),
				new(big.Int).Add(m, One).FillBytes(make([]byte, width)),
				big.NewInt(1).FillBytes(make([]byte, width)),
				make([]byte, width-1),
				append([]byte{0}, bytes.Repeat([]byte{1}, width)...),
			}
			for range 32 {
				edges = append(edges, new(big.Int).Rand(rng, m).FillBytes(make([]byte, width)))
			}
			for _, be := range edges {
				checkBatchRow(t, red, be)
			}
		}
	}
}

// TestBatchFoldMatchesAddChunk: rows that arrive as bytes through a Batch
// fold to the same products as the same rows given to AddChunk as words,
// on either kernel, in uneven chunks, and a batch taken again from the pool
// after Release starts empty.
func TestBatchFoldMatchesAddChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	m := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	bases, exps := randOperands(rng, 300, 1024, ^uint64(0))
	for _, kernel := range []string{"lanes", "chain"} {
		words := newMultiExpAcc(m, 5)
		if kernel == "chain" {
			words = newChainAcc(m, 5)
		}
		red := words.red
		fromBytes := red.newAcc(5)
		AddChunk([]*MultiExpAcc{words}, chunkLimbs(words, bases), [][]uint64{exps}, 2)
		b := red.NewBatch(1)
		for lo, step := 0, 1; lo < len(bases); lo, step = lo+step, step*2 {
			hi := min(len(bases), lo+step)
			var body []byte
			for _, x := range bases[lo:hi] {
				body = append(body, new(big.Int).Mod(x, m).FillBytes(make([]byte, len(red.mbe)))...)
			}
			b.Add(body, [][]uint64{exps[lo:hi]})
		}
		b.Fold([]*MultiExpAcc{fromBytes}, 2)
		if b.Len() != 0 {
			t.Fatalf("%s: %d rows left in the batch after Fold", kernel, b.Len())
		}
		b.Add(make([]byte, len(red.mbe)), [][]uint64{{0}})
		b.Release()
		if b = red.NewBatch(1); b.Len() != 0 {
			t.Fatalf("%s: a batch from the pool holds %d rows", kernel, b.Len())
		}
		b.Release()
		want, got := Results([]*MultiExpAcc{words}, 1)[0], Results([]*MultiExpAcc{fromBytes}, 1)[0]
		if got.Cmp(want) != 0 {
			t.Errorf("%s: the fold from bytes gives %v, from words %v", kernel, got, want)
		}
	}
}

// TestReleasedWindowsAreCleared: an accumulator that takes windows another
// one filled and gave back gets every bucket empty, so its product is its
// own rows' alone.
func TestReleasedWindowsAreCleared(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	m := new(big.Int).Sub(new(big.Int).Lsh(One, 1024), big.NewInt(105))
	red, err := NewReducer(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.laneLimbs == 0 {
		t.Skip("no lane kernel on this CPU")
	}
	bases, exps := randOperands(rng, 200, 1024, ^uint64(0))
	other, _ := randOperands(rng, 200, 1024, ^uint64(0))
	fold := func(bs []*big.Int) *big.Int {
		acc := red.newAcc(4)
		AddChunk([]*MultiExpAcc{acc}, chunkLimbs(acc, bs), [][]uint64{exps}, 1)
		got := Results([]*MultiExpAcc{acc}, 1)[0]
		Release([]*MultiExpAcc{acc})
		return got
	}
	fold(other)
	if got, want := fold(bases), naiveMultiExp(bases, exps, m); got.Cmp(want) != 0 {
		t.Fatalf("a fold on released windows gives %v, want %v", got, want)
	}
}
