package paillier

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// FuzzParseCiphertext: hostile ciphertext bytes must either be rejected or
// decrypt without panicking — the server parses client-supplied ciphertexts
// on every protocol message, so this is its direct attack surface.
func FuzzParseCiphertext(f *testing.F) {
	sk, err := KeyGen(rand.Reader, 128)
	if err != nil {
		f.Fatal(err)
	}
	pk := sk.Public()
	good, err := pk.Encrypt(bigOne())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(make([]byte, pk.CiphertextSize()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := pk.ParseCiphertext(data)
		if err != nil {
			return
		}
		// Accepted ciphertexts must be byte-stable and safely usable.
		if !bytes.Equal(ct.Bytes(), data) {
			t.Fatal("accepted ciphertext re-encodes differently")
		}
		if _, err := sk.Decrypt(ct); err != nil {
			// Rejection during decryption is fine; panics are not, and
			// the fuzzer catches those by itself.
			return
		}
		if _, err := pk.Add(ct, ct); err != nil {
			t.Fatalf("accepted ciphertext unusable in Add: %v", err)
		}
	})
}

// FuzzPrivateKeyUnmarshal: arbitrary bytes must never panic the key parser.
func FuzzPrivateKeyUnmarshal(f *testing.F) {
	sk, err := KeyGen(rand.Reader, 128)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := sk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte("PSSK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var k PrivateKey
		if err := k.UnmarshalBinary(data); err != nil {
			return
		}
		// A key that parses must at least round-trip one encryption.
		ct, err := k.Public().Encrypt(bigOne())
		if err != nil {
			t.Fatalf("parsed key cannot encrypt: %v", err)
		}
		if _, err := k.Decrypt(ct); err != nil {
			t.Fatalf("parsed key cannot decrypt its own ciphertext: %v", err)
		}
	})
}

// FuzzReadBitStore: hostile store files must either be rejected or load into
// a store whose every draw is a valid ciphertext — stockd restores these
// from disk and sumclient loads them via -store, so a rotted or crafted file
// is a real input.
func FuzzReadBitStore(f *testing.F) {
	sk, err := KeyGen(rand.Reader, 128)
	if err != nil {
		f.Fatal(err)
	}
	pk := sk.Public()
	store := NewBitStore(pk)
	if err := store.Fill(2, 2); err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if _, err := store.WriteTo(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())/2])
	f.Add([]byte(storeMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := ReadBitStore(bytes.NewReader(data), pk)
		if err != nil {
			return
		}
		// An accepted store must serve only decryptable ciphertexts (the
		// format cannot vouch for the plaintexts — that needs the secret
		// key — but every draw must be safely usable) and re-serialize
		// cleanly.
		for bit := uint(0); bit <= 1; bit++ {
			for back.Remaining(bit) > 0 {
				ct, err := back.DrawBit(bit)
				if err != nil {
					t.Fatalf("drawing from accepted store: %v", err)
				}
				if _, err := sk.Decrypt(ct); err != nil {
					t.Fatalf("accepted store holds undecryptable ciphertext: %v", err)
				}
			}
		}
		if _, err := back.WriteTo(new(bytes.Buffer)); err != nil {
			t.Fatalf("accepted store does not re-serialize: %v", err)
		}
	})
}

// FuzzEncryptCRTEquivalence: for every in-range (m, r) the owner's CRT
// encryption path must produce the byte-identical ciphertext to the public
// path, and both must decrypt back to m — the differential gate for the
// client-encrypt fast path. Out-of-range inputs must be rejected by both
// paths symmetrically. Every input runs under three keys: a 128-bit one, a
// 512-bit one whose p² and q² are 8 words, the shape on which the owner's
// exponentiations take mathx's register-resident kernel, and a 1024-bit one,
// whose p² and q² take mathx's twenty-limb lanes in the batched EncryptCRT,
// which must decrypt back to m too.
func FuzzEncryptCRTEquivalence(f *testing.F) {
	var keys []*PrivateKey
	for _, bits := range []int{128, 512, 1024} {
		sk, err := KeyGen(rand.Reader, bits)
		if err != nil {
			f.Fatal(err)
		}
		keys = append(keys, sk)
	}
	f.Add([]byte{0}, []byte{2})
	f.Add([]byte{1}, []byte{3})
	for _, sk := range keys {
		nMinus1 := new(big.Int).Sub(sk.N, bigOne()).Bytes()
		f.Add(nMinus1, nMinus1)
		f.Add(sk.P.Bytes(), sk.P.Bytes()) // message fine, nonce shares a factor
	}
	f.Fuzz(func(t *testing.T, mRaw, rRaw []byte) {
		m := new(big.Int).SetBytes(mRaw)
		r := new(big.Int).SetBytes(rRaw)
		for _, sk := range keys {
			pk := sk.Public()
			want, errPub := pk.EncryptWithNonce(m, r)
			got, errCRT := sk.EncryptWithNonceCRT(m, r)
			if (errPub == nil) != (errCRT == nil) {
				t.Fatalf("%d-bit key: path disagreement: public err=%v, crt err=%v", pk.N.BitLen(), errPub, errCRT)
			}
			if errPub != nil {
				continue
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("%d-bit key: CRT and public encryption paths produced different ciphertexts", pk.N.BitLen())
			}
			back, err := sk.Decrypt(got)
			if err != nil {
				t.Fatalf("%d-bit key: decrypting CRT ciphertext: %v", pk.N.BitLen(), err)
			}
			if back.Cmp(m) != 0 {
				t.Fatalf("%d-bit key: round trip: got %v, want %v", pk.N.BitLen(), back, m)
			}
			fresh, err := sk.EncryptCRT(m)
			if err != nil {
				t.Fatal(err)
			}
			if back, err := sk.Decrypt(fresh); err != nil || back.Cmp(m) != 0 {
				t.Fatalf("%d-bit key: EncryptCRT round trip: got %v, %v, want %v", pk.N.BitLen(), back, err, m)
			}
		}
	})
}

func bigOne() *big.Int { return big.NewInt(1) }
