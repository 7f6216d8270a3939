package selectedsum

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/paillier"
)

// multiKeyGen returns a KeyGenerator producing fresh 256-bit keys.
func multiKeyGen() KeyGenerator {
	return func() (homomorphic.PrivateKey, error) {
		sk, err := paillier.KeyGen(rand.Reader, 256)
		if err != nil {
			return nil, err
		}
		return paillier.SchemeKey{SK: sk}, nil
	}
}

func TestRunMultiCorrectness(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		table, sel, want := fixture(t, 90, 45)
		res, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{
			Link:    netsim.ShortDistance,
			Clients: k,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Sum.Cmp(want) != 0 {
			t.Errorf("k=%d: sum=%v want %v", k, res.Sum, want)
		}
		if len(res.PerClient) != k {
			t.Errorf("k=%d: %d per-client timings", k, len(res.PerClient))
		}
		if res.Total != res.Phase1+res.Phase2 {
			t.Errorf("k=%d: Total %v != Phase1 %v + Phase2 %v", k, res.Total, res.Phase1, res.Phase2)
		}
	}
}

func TestRunMultiUnevenShards(t *testing.T) {
	// n = 100, k = 3: shards of 33/33/34.
	table, sel, want := fixture(t, 100, 50)
	res, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{
		Link:    netsim.ShortDistance,
		Clients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(want) != 0 {
		t.Errorf("sum=%v want %v", res.Sum, want)
	}
}

func TestRunMultiWithBatchingAndPools(t *testing.T) {
	table, sel, want := fixture(t, 60, 30)
	// Per-client preprocessed pools need per-client keys; generate keys
	// first and hand them out in order.
	const k = 3
	keys := make([]homomorphic.PrivateKey, k)
	pools := make([]homomorphic.EncryptorPool, k)
	for i := 0; i < k; i++ {
		sk, err := paillier.KeyGen(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = paillier.SchemeKey{SK: sk}
		store := paillier.NewBitStore(sk.Public())
		if err := store.Fill(30, 30); err != nil {
			t.Fatal(err)
		}
		pools[i] = paillier.SchemeBitStore{Store: store}
	}
	next := 0
	gen := func() (homomorphic.PrivateKey, error) {
		k := keys[next]
		next++
		return k, nil
	}
	res, err := RunMulti(gen, table, sel, MultiOptions{
		Link:      netsim.ShortDistance,
		Clients:   k,
		ChunkSize: 8,
		Pools:     pools,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(want) != 0 {
		t.Errorf("sum=%v want %v", res.Sum, want)
	}
}

func TestRunMultiValidation(t *testing.T) {
	table, sel, _ := fixture(t, 10, 5)
	if _, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{Link: netsim.ShortDistance, Clients: 0}); err == nil {
		t.Error("0 clients should fail")
	}
	if _, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{Link: netsim.ShortDistance, Clients: 2, Pools: make([]homomorphic.EncryptorPool, 1)}); err == nil {
		t.Error("pool count mismatch should fail")
	}
	if _, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{Clients: 2}); err == nil {
		t.Error("zero link should fail")
	}
	badSel, _ := database.NewSelection(9)
	if _, err := RunMulti(multiKeyGen(), table, badSel, MultiOptions{Link: netsim.ShortDistance, Clients: 2}); err == nil {
		t.Error("selection length mismatch should fail")
	}
	// Blinding modulus exceeding the plaintext space must be rejected:
	// σ=300 pushes 2B past a 256-bit modulus.
	if _, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{Link: netsim.ShortDistance, Clients: 2, SecurityBits: 300}); err == nil {
		t.Error("oversized blinding should fail")
	}
	if _, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{Link: netsim.ShortDistance, Clients: 2, SecurityBits: -1}); err == nil {
		t.Error("negative security bits should fail")
	}
}

// splitBlinds verifies the invariant RunMulti relies on: every blind lies in
// [0, B) and together they sum to zero mod B.
func splitBlinds(blinds []*big.Int, mod *big.Int) error {
	if mod == nil || mod.Sign() <= 0 {
		return errors.New("bad blinding modulus")
	}
	total := new(big.Int)
	for _, b := range blinds {
		if b == nil || b.Sign() < 0 || b.Cmp(mod) >= 0 {
			return fmt.Errorf("blind %v outside [0, B)", b)
		}
		total.Add(total, b)
	}
	if total.Mod(total, mod).Sign() != 0 {
		return fmt.Errorf("blinds sum to %v, want 0 (mod B)", total)
	}
	return nil
}

func TestSplitBlindsInvariant(t *testing.T) {
	mod := big.NewInt(1000)
	good := []*big.Int{big.NewInt(300), big.NewInt(500), big.NewInt(200)}
	if err := splitBlinds(good, mod); err != nil {
		t.Errorf("valid blinds rejected: %v", err)
	}
	bad := []*big.Int{big.NewInt(300), big.NewInt(500), big.NewInt(201)}
	if err := splitBlinds(bad, mod); err == nil {
		t.Error("non-cancelling blinds accepted")
	}
	outOfRange := []*big.Int{big.NewInt(1000), big.NewInt(0)}
	if err := splitBlinds(outOfRange, mod); err == nil {
		t.Error("blind == mod accepted")
	}
	if err := splitBlinds(good, nil); err == nil {
		t.Error("nil modulus accepted")
	}
	// What RunMulti actually draws holds the invariant, k = 1 included.
	wide := new(big.Int).Lsh(big.NewInt(1), 119)
	for _, k := range []int{1, 2, 3, 7} {
		blinds, err := drawBlinds(k, wide)
		if err != nil {
			t.Fatal(err)
		}
		if err := splitBlinds(blinds, wide); len(blinds) != k || err != nil {
			t.Errorf("k=%d: drew %d blinds: %v", k, len(blinds), err)
		}
	}
}

func TestRunMultiBlindedPartialsDifferFromTrue(t *testing.T) {
	// Statistical sanity: a client's decrypted value must not equal its
	// true partial sum (probability ~2^-119 under correct blinding).
	// RunMulti does not expose partials, so exercise the layer below.
	sk := testKey(t)
	table := database.New([]uint32{100, 200, 300})
	sel, _ := database.NewSelection(3)
	sel.Set(0)
	sel.Set(1) // true partial 300

	blindMod := new(big.Int).Lsh(big.NewInt(1), 119)
	r, err := rand.Int(rand.Reader, blindMod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(sk, table, sel, Options{Link: netsim.ShortDistance}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(big.NewInt(300)) == 0 {
		t.Fatal("blinded partial equals true partial; blinding is broken")
	}
	unblinded := new(big.Int).Sub(res.Sum, r)
	if unblinded.Int64() != 300 {
		t.Errorf("unblinded partial = %v, want 300", unblinded)
	}
}
