package homomorphic

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync/atomic"
	"testing"
)

// uniqueName returns a fresh scheme name per call so tests stay valid when
// the package's tests run multiple times in one process (go test -count=N).
var nameCounter atomic.Int64

func uniqueName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, nameCounter.Add(1))
}

// fakeKey is a minimal PublicKey for registry tests.
type fakeKey struct{ raw []byte }

func (fakeKey) SchemeName() string                      { return "fake" }
func (fakeKey) Encrypt(*big.Int) (Ciphertext, error)    { return nil, errors.New("fake") }
func (fakeKey) Add(_, _ Ciphertext) (Ciphertext, error) { return nil, errors.New("fake") }
func (fakeKey) AddPlain(Ciphertext, *big.Int) (Ciphertext, error) {
	return nil, errors.New("fake")
}
func (fakeKey) OpenFold(rows, columns int) ScalarFold      { return nil }
func (fakeKey) Rerandomize(Ciphertext) (Ciphertext, error) { return nil, errors.New("fake") }
func (fakeKey) PlaintextSpace() *big.Int                   { return big.NewInt(2) }
func (fakeKey) CiphertextSize() int                        { return 1 }
func (fakeKey) ParseCiphertext([]byte) (Ciphertext, error) { return nil, errors.New("fake") }
func (f fakeKey) MarshalBinary() ([]byte, error)           { return f.raw, nil }

func TestRegisterAndParse(t *testing.T) {
	name := uniqueName("test-scheme-a")
	Register(name, func(b []byte) (PublicKey, error) {
		return fakeKey{raw: b}, nil
	})
	pk, err := ParsePublicKey(name, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pk.MarshalBinary()
	if err != nil || string(raw) != "\x01\x02\x03" {
		t.Errorf("round trip lost bytes: %v %v", raw, err)
	}
}

func TestParseUnknownScheme(t *testing.T) {
	_, err := ParsePublicKey("never-registered", nil)
	if err == nil {
		t.Fatal("unknown scheme should fail")
	}
	if !strings.Contains(err.Error(), "never-registered") {
		t.Errorf("error should name the scheme: %v", err)
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { Register("", func([]byte) (PublicKey, error) { return nil, nil }) },
		func() { Register(uniqueName("x-nil-parser"), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Register should panic")
				}
			}()
			f()
		}()
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	parser := func(b []byte) (PublicKey, error) { return fakeKey{}, nil }
	name := uniqueName("test-scheme-dup")
	Register(name, parser)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	Register(name, parser)
}

func TestSchemesSorted(t *testing.T) {
	za := uniqueName("test-zzz")
	aa := uniqueName("test-aaa")
	Register(za, func([]byte) (PublicKey, error) { return fakeKey{}, nil })
	Register(aa, func([]byte) (PublicKey, error) { return fakeKey{}, nil })
	names := Schemes()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("schemes not sorted: %v", names)
		}
	}
	found := 0
	for _, n := range names {
		if n == za || n == aa {
			found++
		}
	}
	if found != 2 {
		t.Errorf("registered schemes missing from %v", names)
	}
}
