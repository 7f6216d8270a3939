package paillier

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"privstats/internal/testutil"
)

// foldFixture encrypts count random small messages and draws count random
// scalars with the given mask, returning the expected plaintext sum.
func foldFixture(t testing.TB, pk *PublicKey, count int, mask uint64, seed int64) ([]*Ciphertext, []uint64, *big.Int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cts := make([]*Ciphertext, count)
	ks := make([]uint64, count)
	want := new(big.Int)
	tmp := new(big.Int)
	for i := range cts {
		m := int64(rng.Intn(1000))
		ct, err := pk.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
		ks[i] = rng.Uint64() & mask
		tmp.SetUint64(ks[i])
		tmp.Mul(tmp, big.NewInt(m))
		want.Add(want, tmp)
	}
	return cts, ks, want.Mod(want, pk.N)
}

func TestFoldScalarMulMatchesNaive(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	for _, count := range []int{1, 2, 17, 64} {
		for _, mask := range []uint64{1, 0xffffffff, ^uint64(0)} {
			cts, ks, want := foldFixture(t, pk, count, mask, int64(count)^int64(mask))
			for _, workers := range []int{1, 2, 4} {
				got, err := pk.FoldScalarMul(cts, ks, workers)
				if err != nil {
					t.Fatalf("FoldScalarMul(count=%d mask=%#x workers=%d): %v", count, mask, workers, err)
				}
				m, err := sk.Decrypt(got)
				if err != nil {
					t.Fatal(err)
				}
				if m.Cmp(want) != 0 {
					t.Fatalf("fold(count=%d mask=%#x workers=%d) decrypts to %v, want %v", count, mask, workers, m, want)
				}
			}
		}
	}
}

func TestFoldScalarMulAllZeroScalars(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 8, 0xffff, 9)
	for i := range ks {
		ks[i] = 0
	}
	got, err := pk.FoldScalarMul(cts, ks, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sk.Decrypt(got)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sign() != 0 {
		t.Errorf("all-zero fold decrypts to %v, want 0", m)
	}
	// The identity accumulator must still compose homomorphically.
	five, err := pk.Encrypt(big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := pk.Add(got, five)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = sk.Decrypt(sum); err != nil || m.Int64() != 5 {
		t.Errorf("identity + E(5) decrypts to %v (%v), want 5", m, err)
	}
}

func TestFoldScalarMulValidation(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	ct, err := pk.Encrypt(big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pk.FoldScalarMul([]*Ciphertext{ct}, []uint64{1, 2}, 1); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := pk.FoldScalarMul([]*Ciphertext{nil}, []uint64{1}, 1); err == nil {
		t.Error("nil ciphertext should fail")
	}
	bad := &Ciphertext{c: new(big.Int).Set(pk.NSquared), byteLen: pk.byteLen}
	if _, err := pk.FoldScalarMul([]*Ciphertext{bad}, []uint64{1}, 1); err == nil {
		t.Error("out-of-range ciphertext should fail")
	}
	// A zero-scalar ciphertext is still validated: the fold must not become
	// a channel for smuggling malformed ciphertexts past the checks.
	if _, err := pk.FoldScalarMul([]*Ciphertext{bad}, []uint64{0}, 1); err == nil {
		t.Error("out-of-range ciphertext with zero scalar should still fail")
	}
}

// columnScalars reshapes per-row scalars for AddChunk: column c of rows
// [lo, hi).
func columnScalars(cols [][]uint64, lo, hi int) [][]uint64 {
	ks := make([][]uint64, len(cols))
	for c, col := range cols {
		ks[c] = col[lo:hi]
	}
	return ks
}

// encodeRows concatenates the encodings of cts, as a chunk body carries them.
func encodeRows(cts []*Ciphertext) []byte {
	var body []byte
	for _, ct := range cts {
		body = append(body, ct.Bytes()...)
	}
	return body
}

// TestFoldStreamsColumns feeds encoded rows, in uneven chunks, into a
// two-column Fold on 1, 2, 3, 4 and 7 lanes and checks each column against
// FoldScalarMul over the same rows: the streaming and one-shot forms, and
// every lane count, produce the identical group element.
func TestFoldStreamsColumns(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 300, ^uint64(0), 21)
	ones := make([]uint64, len(ks))
	for i := range ones {
		ones[i] = uint64(i % 2) // a column with zero scalars
	}
	cols := [][]uint64{ks, ones}
	body, width := encodeRows(cts), pk.CiphertextSize()
	var want [][]byte
	for _, col := range cols {
		sum, err := pk.FoldScalarMul(cts, col, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sum.Bytes())
	}
	for _, lanes := range []int{1, 2, 3, 4, 7} {
		f := pk.NewFold(len(cts), len(cols))
		for lo, step := 0, 1; lo < len(cts); lo, step = lo+step, step*3 { // chunks of 1, 3, 9, ... rows
			hi := min(len(cts), lo+step)
			if _, err := f.AddChunk(body[lo*width:hi*width], columnScalars(cols, lo, hi), lanes); err != nil {
				t.Fatal(err)
			}
		}
		for c, got := range f.Sums(lanes) {
			if !bytes.Equal(got.Bytes(), want[c]) {
				t.Errorf("lanes=%d column %d: streaming fold differs from FoldScalarMul", lanes, c)
			}
		}
	}

	// Validation is ParseCiphertext's, applied even when every scalar is 0.
	f := pk.NewFold(len(cts), 2)
	zero := [][]uint64{{0}, {0}}
	if k, err := f.AddChunk(make([]byte, width), zero, 1); k != 0 || !errors.Is(err, ErrCiphertextForm) {
		t.Errorf("zero ciphertext under zero scalars: row %d, err = %v, want row 0, ErrCiphertextForm", k, err)
	}
	if k, err := f.AddChunk(body[:2*width-1], [][]uint64{{1, 1}, {1, 1}}, 1); k != 1 || !errors.Is(err, ErrCiphertextForm) {
		t.Errorf("short second ciphertext: row %d, err = %v, want row 1, ErrCiphertextForm", k, err)
	}
}

// TestFoldBadChunkLeavesFoldUntouched: a chunk whose row k is malformed is
// refused whole. Its rows 0…k−1 are not folded, so the sums equal those of a
// fold that never saw it, byte for byte, on every lane count.
func TestFoldBadChunkLeavesFoldUntouched(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 40, ^uint64(0), 23)
	body, width := encodeRows(cts), pk.CiphertextSize()
	cols := [][]uint64{ks, ks}
	const split, bad = 20, 13 // the bad chunk is rows [split, end), row split+bad malformed
	broken := append([]byte(nil), body[split*width:]...)
	copy(broken[bad*width:(bad+1)*width], pk.NSquared.FillBytes(make([]byte, width)))
	for _, lanes := range []int{1, 2, 4} {
		clean, hit := pk.NewFold(len(cts), 2), pk.NewFold(len(cts), 2)
		for _, f := range []*Fold{clean, hit} {
			if _, err := f.AddChunk(body[:split*width], columnScalars(cols, 0, split), lanes); err != nil {
				t.Fatal(err)
			}
		}
		k, err := hit.AddChunk(broken, columnScalars(cols, split, len(cts)), lanes)
		if k != bad || !errors.Is(err, ErrCiphertextForm) {
			t.Fatalf("lanes=%d: bad chunk reported row %d, %v; want row %d, ErrCiphertextForm", lanes, k, err, bad)
		}
		want, got := clean.Sums(1), hit.Sums(lanes)
		for c := range want {
			if !bytes.Equal(got[c].Bytes(), want[c].Bytes()) {
				t.Errorf("lanes=%d column %d: the refused chunk changed the fold", lanes, c)
			}
		}
	}
}

// TestFoldAddDoesNotAllocate pins the per-row cost the streaming fold exists
// for at the chunk entry point: once the buckets a batch touches exist and the
// limb slab has grown to it, decoding and folding another batch allocates
// nothing per row or per chunk: at most once per batch on one lane (the
// closure mathx.AddChunk deals its windows through) and a fixed number on two.
func TestFoldAddDoesNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sk := testKey(t, 512)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 256, 0xff, 22)
	body, width := encodeRows(cts), pk.CiphertextSize()
	for _, lanes := range []int{1, 2} {
		f := pk.NewFold(1<<20, 1)
		// perBatch adds one batch of foldBatchRows rows in chunks of rows.
		perBatch := func(rows int) float64 {
			chunk, cols := body[:rows*width], [][]uint64{ks[:rows]}
			add := func() {
				for range foldBatchRows / rows {
					if _, err := f.AddChunk(chunk, cols, lanes); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range 4 {
				add()
			}
			return testing.AllocsPerRun(20, add)
		}
		long, short := perBatch(len(cts)), perBatch(len(cts)/4)
		if short != long {
			t.Errorf("lanes=%d: a batch of %d-row chunks allocates %v times, of %d-row chunks %v: the fold allocates per row or per chunk", lanes, len(cts)/4, short, len(cts), long)
		}
		if lanes == 1 && long > 1 {
			t.Errorf("one lane allocates %v times per batch, want at most 1", long)
		}
		if long > 4 {
			t.Errorf("lanes=%d: %v allocations per batch, want a few", lanes, long)
		}
	}
}

// TestFoldBatches: chunks shorter than foldBatchRows are held, decoded, and
// folded together once a batch is due or the fold has seen every row it was
// sized for; Sums folds what is still held. The sums equal a fold that took
// every row in one chunk.
func TestFoldBatches(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	rows := foldBatchRows + foldBatchRows/2
	cts, ks, _ := foldFixture(t, pk, rows, ^uint64(0), 25)
	body, width := encodeRows(cts), pk.CiphertextSize()
	one := pk.NewFold(rows, 1)
	if _, err := one.AddChunk(body, [][]uint64{ks}, 1); err != nil {
		t.Fatal(err)
	}
	want := one.Sums(1)[0].Bytes()
	for _, sized := range []int{rows, 1 << 20} {
		f := pk.NewFold(sized, 1)
		const step = 100
		for lo := 0; lo < rows; lo += step {
			hi := min(rows, lo+step)
			if _, err := f.AddChunk(body[lo*width:hi*width], [][]uint64{ks[lo:hi]}, 2); err != nil {
				t.Fatal(err)
			}
			held := f.batch.Len()
			switch {
			case lo == 0 && held != hi:
				t.Errorf("sized %d: %d rows held after the first chunk of %d", sized, held, hi)
			case held >= foldBatchRows:
				t.Errorf("sized %d: %d rows held after row %d, a batch is %d", sized, held, hi, foldBatchRows)
			case sized == rows && hi == rows && held != 0:
				t.Errorf("sized %d: %d rows held after the last chunk", sized, held)
			}
		}
		if got := f.Sums(2)[0].Bytes(); !bytes.Equal(got, want) {
			t.Errorf("sized %d: batched fold differs from one chunk", sized)
		}
	}
}

// BenchmarkFoldLanes folds one 2 500-row chunk of 32-bit values and their
// 64-bit squares under a 1024-bit key, and combines, on one lane and on two.
func BenchmarkFoldLanes(b *testing.B) {
	sk := testKey(b, 1024)
	pk := sk.Public()
	cts, ks, _ := foldFixture(b, pk, 2500, 0xffffffff, 24)
	squares := make([]uint64, len(ks))
	for i, k := range ks {
		squares[i] = k * k
	}
	body := encodeRows(cts)
	for _, lanes := range []int{1, 2} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for range b.N {
				f := pk.NewFold(len(cts), 2)
				if _, err := f.AddChunk(body, [][]uint64{ks, squares}, lanes); err != nil {
					b.Fatal(err)
				}
				f.Sums(lanes)
			}
		})
	}
}
