package selectedsum

import (
	"math/big"
	"sync/atomic"
	"testing"

	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/wire"
)

// countingPool is a bit store that counts what is drawn from it. Like every
// pool it may be drawn from by several encryption workers at once.
type countingPool struct {
	homomorphic.EncryptorPool
	drawn [2]atomic.Int64
}

func (p *countingPool) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	p.drawn[bit&1].Add(1)
	return p.EncryptorPool.DrawBit(bit)
}

// TestPackedSelectionSourceRoutes: selected row i uploads E(weight(i)) and the
// unchanged server fold replies Σ weight(i)·x_i, whether the weights were
// encrypted online by the owner or shifted onto pooled zeros; the pooled
// route draws one zero per row and no one.
func TestPackedSelectionSourceRoutes(t *testing.T) {
	sk := testKey(t)
	table, sel, _ := fixture(t, 70, 31)
	// Three weights, by row: the slots a caller would pack three groups into.
	units := []*big.Int{big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 40), new(big.Int).Lsh(big.NewInt(1), 80)}
	weight := func(row int) *big.Int { return units[row%3] }
	want := new(big.Int)
	for _, i := range sel.Indices() {
		want.Add(want, new(big.Int).Mul(weight(i), big.NewInt(int64(table.Value(i)))))
	}

	store := paillier.NewBitStoreOwner(sk.(paillier.SchemeKey).SK)
	if err := store.Fill(table.Len(), 0); err != nil {
		t.Fatal(err)
	}
	pool := &countingPool{EncryptorPool: paillier.SchemeBitStore{Store: store}}

	for _, tc := range []struct {
		name      string
		pool      homomorphic.EncryptorPool
		wantZeros int
	}{
		{"pool+AddPlain", pool, table.Len()},
		{"owner online", nil, 0},
	} {
		pool.drawn[0].Store(0)
		pool.drawn[1].Store(0)
		conn, errc := servePair(t, table)
		sums, err := QueryVector(conn, sk, PackedSelectionSource(sk, sel, weight, tc.pool), 16, wire.ColValue)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if serr := <-errc; serr != nil {
			t.Fatalf("%s: serve: %v", tc.name, serr)
		}
		if sums[0].Cmp(want) != 0 {
			t.Errorf("%s: packed sum %v, want %v", tc.name, sums[0], want)
		}
		if zeros, ones := pool.drawn[0].Load(), pool.drawn[1].Load(); zeros != int64(tc.wantZeros) || ones != 0 {
			t.Errorf("%s: drew %d zeros and %d ones, want %d and 0", tc.name, zeros, ones, tc.wantZeros)
		}
	}
}

// TestPackedSelectionSourceRejectsBadWeight: a weight that may not be a
// plaintext fails the upload on every route instead of wrapping mod N.
func TestPackedSelectionSourceRejectsBadWeight(t *testing.T) {
	sk := testKey(t)
	_, sel, _ := fixture(t, 8, 8)
	store := paillier.NewBitStoreOwner(sk.(paillier.SchemeKey).SK)
	if err := store.Fill(8, 0); err != nil {
		t.Fatal(err)
	}
	wide := new(big.Int).Lsh(big.NewInt(1), uint(sk.PublicKey().PlaintextSpace().BitLen()))
	for name, w := range map[string]*big.Int{"nil": nil, "negative": big.NewInt(-1), "wide": wide} {
		for _, pool := range []homomorphic.EncryptorPool{nil, paillier.SchemeBitStore{Store: store}} {
			src := PackedSelectionSource(sk, sel, func(int) *big.Int { return w }, pool)
			if _, err := src.EncryptAt(0); err == nil {
				t.Errorf("%s weight (pool %v) was encrypted", name, pool != nil)
			}
		}
	}
	if PackedSelectionSource(nil, sel, func(int) *big.Int { return big.NewInt(1) }, nil) != nil {
		t.Error("nil key yielded a source")
	}
}
