package paillier

import (
	"math/big"
	"sync"
	"testing"

	"privstats/internal/mathx"
)

func TestBitStoreDrawAndFallback(t *testing.T) {
	sk := testKey(t, 128)
	store := NewBitStore(sk.Public())
	if err := store.Fill(3, 2); err != nil {
		t.Fatal(err)
	}
	if store.Remaining(0) != 3 || store.Remaining(1) != 2 {
		t.Fatalf("remaining = (%d,%d), want (3,2)", store.Remaining(0), store.Remaining(1))
	}
	// Drain plus one extra of each: extras are online fallbacks.
	for i := 0; i < 4; i++ {
		ct, err := store.DrawBit(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil || got.Sign() != 0 {
			t.Fatalf("E(0) draw decrypts to %v (err %v)", got, err)
		}
	}
	for i := 0; i < 3; i++ {
		ct, err := store.DrawBit(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil || got.Cmp(mathx.One) != 0 {
			t.Fatalf("E(1) draw decrypts to %v (err %v)", got, err)
		}
	}
	if store.OnlineFallbacks() != 2 {
		t.Errorf("fallbacks = %d, want 2", store.OnlineFallbacks())
	}
	if store.Remaining(0) != 0 || store.Remaining(1) != 0 {
		t.Error("store should be empty")
	}
}

func TestBitStoreRejectsBadInput(t *testing.T) {
	store := NewBitStore(testKey(t, 128).Public())
	if _, err := store.DrawBit(2); err == nil {
		t.Error("DrawBit(2) should fail")
	}
	if err := store.Fill(-1, 0); err == nil {
		t.Error("negative fill should fail")
	}
}

func TestBitStoreDrawsAreDistinctCiphertexts(t *testing.T) {
	store := NewBitStore(testKey(t, 128).Public())
	if err := store.Fill(0, 10); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		ct, err := store.DrawBit(1)
		if err != nil {
			t.Fatal(err)
		}
		k := ct.Value().String()
		if seen[k] {
			t.Fatal("store returned the same ciphertext twice: index positions would be linkable")
		}
		seen[k] = true
	}
}

func TestBitStoreConcurrentDraw(t *testing.T) {
	sk := testKey(t, 128)
	store := NewBitStore(sk.Public())
	if err := store.FillParallel(64, 64, 4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(bit uint) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				ct, err := store.DrawBit(bit)
				if err != nil {
					errs <- err
					return
				}
				got, err := sk.Decrypt(ct)
				if err != nil {
					errs <- err
					return
				}
				if got.Uint64() != uint64(bit) {
					errs <- err
					return
				}
			}
		}(uint(g % 2))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkEncryptOnline(b *testing.B) {
	pk := testKey(b, 512).Public()
	m := big.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	sk := testKey(b, 512)
	ct, err := sk.Public().Encrypt(big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptNaive(b *testing.B) {
	sk := testKey(b, 512)
	ct, err := sk.Public().Encrypt(big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptNaive(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerScalarMul32Bit(b *testing.B) {
	// The server's per-element work in the selected-sum protocol:
	// one exponentiation by a 32-bit database value plus one multiply.
	sk := testKey(b, 512)
	pk := sk.Public()
	ct, err := pk.Encrypt(big.NewInt(1))
	if err != nil {
		b.Fatal(err)
	}
	x := big.NewInt(0xDEADBEEF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.ScalarMul(ct, x); err != nil {
			b.Fatal(err)
		}
	}
}
