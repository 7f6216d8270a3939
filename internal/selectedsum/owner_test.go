package selectedsum

import (
	"math/big"
	"testing"

	"privstats/internal/netsim"
)

// TestRunOwnerFastPathMatchesStrippedOracle: the same query must return the
// plaintext sum whether the client encrypts through the owner's EncryptSelf
// (Run's route, since it holds the private key) or through the public-key
// encryptor a party holding only the public key would use.
func TestRunOwnerFastPathMatchesStrippedOracle(t *testing.T) {
	sk := testKey(t)
	for _, tc := range []struct{ n, m int }{{40, 13}, {100, 100}, {64, 0}} {
		table, sel, want := fixture(t, tc.n, tc.m)
		owner, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 32})
		if err != nil {
			t.Fatalf("n=%d owner run: %v", tc.n, err)
		}
		conn, errc := servePair(t, table)
		public, err := QueryVector(conn, sk, selectionSource{sel: sel, enc: Online{PK: sk.PublicKey()}}, 32, 0)
		if err != nil {
			t.Fatalf("n=%d public-key query: %v", tc.n, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("n=%d serve: %v", tc.n, err)
		}
		if owner.Sum.Cmp(want) != 0 || public[0].Cmp(want) != 0 {
			t.Errorf("n=%d m=%d: owner sum=%v, public-key sum=%v, want %v", tc.n, tc.m, owner.Sum, public[0], want)
		}
	}
}

// TestOwnerOnlineRejectsBadBit mirrors Online's input validation.
func TestOwnerOnlineRejectsBadBit(t *testing.T) {
	sk := testKey(t)
	enc := OwnerOnline{SK: sk}
	if _, err := enc.EncryptBit(2); err == nil {
		t.Error("EncryptBit(2) should fail")
	}
	ct, err := enc.EncryptBit(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("owner-encrypted bit decrypts to %v, want 1", m)
	}
}
