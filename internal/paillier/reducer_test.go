package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"privstats/internal/mathx"
)

// mulModN2 is the division-based product the ciphertext operations used
// before the reducer, kept as their oracle.
func mulModN2(pk *PublicKey, x, y *big.Int) *big.Int {
	t := new(big.Int).Mul(x, y)
	return t.Mod(t, pk.NSquared)
}

// TestCiphertextOpsMatchDivision: Add, AddPlain and the assembled encryption
// are bit-identical to Mul followed by Mod at every key size the stack runs,
// whether the key came from KeyGen, from the wire, or from a literal; and
// each key's encryptions and seals decrypt, a literal's without the modulus
// table's batch.
func TestCiphertextOpsMatchDivision(t *testing.T) {
	for _, bits := range []int{64, 256, 512, 1024} {
		sk := testKey(t, bits)
		raw, err := sk.Public().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var parsed PublicKey
		if err := parsed.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if parsed.n2 == nil || sk.n2 == nil {
			t.Fatalf("%d bits: generated or parsed key carries no reducer", bits)
		}
		literal := &PublicKey{N: sk.N, NSquared: sk.NSquared, byteLen: sk.byteLen}
		for name, pk := range map[string]*PublicKey{"generated": sk.Public(), "parsed": &parsed, "literal": literal} {
			a, err := pk.Encrypt(big.NewInt(41))
			if err != nil {
				t.Fatal(err)
			}
			b, err := pk.Encrypt(new(big.Int).Sub(pk.N, mathx.One))
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := pk.Rerandomize(a)
			if err != nil {
				t.Fatal(err)
			}
			if m, err := sk.Decrypt(sealed); err != nil || m.Int64() != 41 {
				t.Errorf("%d bits, %s key: E(41) sealed decrypts to %v, %v", bits, name, m, err)
			}
			if (pk.batch == nil) != (name == "literal") {
				t.Errorf("%d bits, %s key: batch = %p", bits, name, pk.batch)
			}
			sum, err := pk.Add(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := mulModN2(pk, a.c, b.c); sum.c.Cmp(want) != 0 {
				t.Errorf("%d bits, %s key: Add differs from Mul+Mod", bits, name)
			}
			for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-5), new(big.Int).Sub(pk.N, mathx.One), new(big.Int).Lsh(pk.N, 3)} {
				got, err := pk.AddPlain(a, k)
				if err != nil {
					t.Fatal(err)
				}
				gk := new(big.Int).Mod(k, pk.N)
				gk.Mul(gk, pk.N).Add(gk, mathx.One)
				if want := mulModN2(pk, gk, a.c); got.c.Cmp(want) != 0 {
					t.Errorf("%d bits, %s key: AddPlain(%v) differs from Mul+Mod", bits, name, k)
				}
			}
			m := new(big.Int).Sub(pk.N, big.NewInt(2))
			rn := new(big.Int).Sub(pk.NSquared, mathx.One) // the widest randomizer
			ct, err := pk.EncryptWithRandomizer(m, rn)
			if err != nil {
				t.Fatal(err)
			}
			gm := new(big.Int).Mul(m, pk.N)
			if want := mulModN2(pk, gm.Add(gm, mathx.One), rn); ct.c.Cmp(want) != 0 {
				t.Errorf("%d bits, %s key: EncryptWithRandomizer differs from Mul+Mod", bits, name)
			}
			if name == "literal" {
				if sums := pk.NewFold(32, 1).Sums(1); sums[0].c.Cmp(mathx.One) != 0 {
					t.Errorf("%d bits: empty fold under a literal key is %v, want 1", bits, sums[0].c)
				}
			}
		}
	}
}

// TestPublicKeyConcurrentAdd hammers one key's Add and AddPlain from eight
// goroutines (run under -race by `make race`): the key's reducer is shared,
// the scratch is not, and every product must equal the serial one.
func TestPublicKeyConcurrentAdd(t *testing.T) {
	sk := testKey(t, 512)
	pk := sk.Public()
	const goroutines, terms = 8, 64
	cts := make([]*Ciphertext, terms)
	for i := range cts {
		m, err := mathx.RandInt(rand.Reader, pk.N)
		if err != nil {
			t.Fatal(err)
		}
		if cts[i], err = sk.EncryptCRT(m); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(start int) (*Ciphertext, error) {
		acc := cts[start%terms]
		var err error
		for i := 1; i < terms; i++ {
			if acc, err = pk.Add(acc, cts[(start+i)%terms]); err != nil {
				return nil, err
			}
			if acc, err = pk.AddPlain(acc, big.NewInt(int64(start+i))); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	want := make([]*Ciphertext, goroutines)
	for g := range want {
		var err error
		if want[g], err = chain(g); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				got, err := chain(g)
				if err != nil {
					t.Error(err)
					return
				}
				if got.c.Cmp(want[g].c) != 0 {
					t.Errorf("goroutine %d round %d: concurrent product differs from the serial one", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
}
