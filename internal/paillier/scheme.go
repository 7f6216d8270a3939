package paillier

import (
	"fmt"
	"math/big"

	"privstats/internal/homomorphic"
)

// Adapters exposing Paillier through the homomorphic.PublicKey /
// homomorphic.PrivateKey interfaces the protocol layer is written against.

// Scheme wraps a *PublicKey as a homomorphic.PublicKey.
type Scheme struct{ PK *PublicKey }

// SchemeKey wraps a *PrivateKey as a homomorphic.PrivateKey.
type SchemeKey struct{ SK *PrivateKey }

var (
	_ homomorphic.PublicKey  = Scheme{}
	_ homomorphic.PrivateKey = SchemeKey{}
	_ homomorphic.Ciphertext = (*Ciphertext)(nil)
)

// SchemeID is the registry name of this cryptosystem.
const SchemeID = "paillier"

func init() {
	homomorphic.Register(SchemeID, func(keyBytes []byte) (homomorphic.PublicKey, error) {
		var pk PublicKey
		if err := pk.UnmarshalBinary(keyBytes); err != nil {
			return nil, err
		}
		return Scheme{PK: &pk}, nil
	})
}

// SchemeName implements homomorphic.PublicKey.
func (s Scheme) SchemeName() string { return SchemeID }

// MarshalBinary implements homomorphic.PublicKey.
func (s Scheme) MarshalBinary() ([]byte, error) { return s.PK.MarshalBinary() }

// Encrypt implements homomorphic.PublicKey.
func (s Scheme) Encrypt(m *big.Int) (homomorphic.Ciphertext, error) {
	return s.PK.Encrypt(m)
}

// Add implements homomorphic.PublicKey.
func (s Scheme) Add(a, b homomorphic.Ciphertext) (homomorphic.Ciphertext, error) {
	ca, cb, err := asPair(a, b)
	if err != nil {
		return nil, err
	}
	return s.PK.Add(ca, cb)
}

// AddPlain implements homomorphic.PublicKey.
func (s Scheme) AddPlain(c homomorphic.Ciphertext, k *big.Int) (homomorphic.Ciphertext, error) {
	cc, err := asPaillier(c)
	if err != nil {
		return nil, err
	}
	return s.PK.AddPlain(cc, k)
}

// OpenFold implements homomorphic.PublicKey.
func (s Scheme) OpenFold(rows, columns int) homomorphic.ScalarFold {
	return schemeFold{s.PK.NewFold(rows, columns)}
}

// schemeFold adapts *Fold to homomorphic.ScalarFold.
type schemeFold struct{ *Fold }

// Sums implements homomorphic.ScalarFold.
func (f schemeFold) Sums(lanes int) []homomorphic.Ciphertext {
	own := f.Fold.Sums(lanes)
	sums := make([]homomorphic.Ciphertext, len(own))
	for c, ct := range own {
		sums[c] = ct
	}
	return sums
}

// Rerandomize implements homomorphic.PublicKey.
func (s Scheme) Rerandomize(c homomorphic.Ciphertext) (homomorphic.Ciphertext, error) {
	cc, err := asPaillier(c)
	if err != nil {
		return nil, err
	}
	return s.PK.Rerandomize(cc)
}

// PlaintextSpace implements homomorphic.PublicKey.
func (s Scheme) PlaintextSpace() *big.Int { return new(big.Int).Set(s.PK.N) }

// CiphertextSize implements homomorphic.PublicKey.
func (s Scheme) CiphertextSize() int { return s.PK.CiphertextSize() }

// ParseCiphertext implements homomorphic.PublicKey.
func (s Scheme) ParseCiphertext(b []byte) (homomorphic.Ciphertext, error) {
	return s.PK.ParseCiphertext(b)
}

// PublicKey implements homomorphic.PrivateKey.
func (k SchemeKey) PublicKey() homomorphic.PublicKey { return Scheme{PK: k.SK.Public()} }

// Decrypt implements homomorphic.PrivateKey.
func (k SchemeKey) Decrypt(c homomorphic.Ciphertext) (*big.Int, error) {
	cc, err := asPaillier(c)
	if err != nil {
		return nil, err
	}
	return k.SK.Decrypt(cc)
}

// EncryptSelf implements homomorphic.PrivateKey through the CRT-split
// exponentiation over the secret factors.
func (k SchemeKey) EncryptSelf(m *big.Int) (homomorphic.Ciphertext, error) {
	return k.SK.EncryptCRT(m)
}

// SchemeBitStore adapts BitStore to homomorphic.EncryptorPool.
type SchemeBitStore struct{ Store *BitStore }

var _ homomorphic.EncryptorPool = SchemeBitStore{}

// DrawBit implements homomorphic.EncryptorPool.
func (s SchemeBitStore) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	return s.Store.DrawBit(bit)
}

// Remaining implements homomorphic.EncryptorPool.
func (s SchemeBitStore) Remaining(bit uint) int { return s.Store.Remaining(bit) }

func asPaillier(c homomorphic.Ciphertext) (*Ciphertext, error) {
	ct, ok := c.(*Ciphertext)
	if !ok {
		return nil, fmt.Errorf("paillier: foreign ciphertext type %T", c)
	}
	return ct, nil
}

func asPair(a, b homomorphic.Ciphertext) (*Ciphertext, *Ciphertext, error) {
	ca, err := asPaillier(a)
	if err != nil {
		return nil, nil, err
	}
	cb, err := asPaillier(b)
	if err != nil {
		return nil, nil, err
	}
	return ca, cb, nil
}
