package paillier

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
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

// TestFoldStreamsColumns feeds encoded rows into a two-column Fold and
// checks each column against FoldScalarMul over the same rows: the streaming
// and one-shot forms produce the identical group element.
func TestFoldStreamsColumns(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 40, ^uint64(0), 21)
	ones := make([]uint64, len(ks))
	for i := range ones {
		ones[i] = uint64(i % 2) // a column with zero scalars
	}
	f := pk.NewFold(len(cts), 2)
	for i, ct := range cts {
		if err := f.Add(ct.Bytes(), []uint64{ks[i], ones[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for c, col := range [][]uint64{ks, ones} {
		want, err := pk.FoldScalarMul(cts, col, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Sums()[c]; got.c.Cmp(want.c) != 0 {
			t.Errorf("column %d: streaming fold differs from FoldScalarMul", c)
		}
	}

	// Validation is ParseCiphertext's, applied even when every scalar is 0.
	if err := f.Add(cts[0].Bytes(), []uint64{1}); err == nil {
		t.Error("scalar count mismatch should fail")
	}
	if err := f.Add(make([]byte, pk.CiphertextSize()), []uint64{0, 0}); !errors.Is(err, ErrCiphertextForm) {
		t.Errorf("zero ciphertext under zero scalars: err = %v, want ErrCiphertextForm", err)
	}
	if err := f.Add(cts[0].Bytes()[1:], []uint64{1, 1}); !errors.Is(err, ErrCiphertextForm) {
		t.Errorf("short ciphertext: err = %v, want ErrCiphertextForm", err)
	}
}

// TestFoldAddDoesNotAllocate pins the per-row cost the streaming fold
// exists for: once the buckets a row touches exist, decoding and folding
// another row allocates nothing.
func TestFoldAddDoesNotAllocate(t *testing.T) {
	sk := testKey(t, 512)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 32, 0xff, 22)
	rows := make([][]byte, len(cts))
	for i, ct := range cts {
		rows[i] = ct.Bytes()
	}
	f := pk.NewFold(1<<20, 1)
	add := func(i int) {
		if err := f.Add(rows[i%len(rows)], ks[i%len(ks):i%len(ks)+1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*len(rows); i++ {
		add(i)
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() { add(i); i++ }); allocs != 0 {
		t.Errorf("steady-state Fold.Add allocates %v times per row, want 0", allocs)
	}
}
