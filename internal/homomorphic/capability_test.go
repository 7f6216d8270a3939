package homomorphic

import (
	"math/big"
	"testing"
)

// foldingFake is fakeKey plus the MultiScalarFolder capability.
type foldingFake struct{ fakeKey }

func (foldingFake) OpenFold(rows, columns int) ScalarFold { return nil }

func TestWithoutMultiScalarFoldStripsCapability(t *testing.T) {
	var pk PublicKey = foldingFake{}
	if _, ok := pk.(MultiScalarFolder); !ok {
		t.Fatal("foldingFake should implement MultiScalarFolder")
	}
	stripped := WithoutMultiScalarFold(pk)
	if _, ok := stripped.(MultiScalarFolder); ok {
		t.Error("stripped key still exposes MultiScalarFolder")
	}
	// The base interface still works through the wrapper.
	if stripped.SchemeName() != pk.SchemeName() {
		t.Error("stripped key lost the base method set")
	}
}

// addingFake is fakeKey plus the PlainAdder capability.
type addingFake struct{ fakeKey }

func (addingFake) AddPlain(c Ciphertext, k *big.Int) (Ciphertext, error) { return c, nil }

func TestStrippedKeyLosesPlainAdder(t *testing.T) {
	var pk PublicKey = addingFake{}
	if _, ok := pk.(PlainAdder); !ok {
		t.Fatal("addingFake should implement PlainAdder")
	}
	if _, ok := WithoutMultiScalarFold(pk).(PlainAdder); ok {
		t.Error("stripped key still exposes PlainAdder")
	}
}
