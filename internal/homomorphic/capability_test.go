package homomorphic

import "testing"

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
