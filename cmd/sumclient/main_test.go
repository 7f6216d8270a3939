package main

import (
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"privstats/internal/daemon"
	"privstats/internal/paillier"
)

func TestBuildSelectionFromIndices(t *testing.T) {
	sel, err := buildSelection(10, 0.5, "0, 3,9", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 3 || sel.Bit(0) != 1 || sel.Bit(3) != 1 || sel.Bit(9) != 1 {
		t.Errorf("selection bits wrong: count=%d", sel.Count())
	}
}

func TestBuildSelectionFromFraction(t *testing.T) {
	sel, err := buildSelection(100, 0.25, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 25 {
		t.Errorf("count = %d, want 25", sel.Count())
	}
	// Deterministic per seed.
	sel2, err := buildSelection(100, 0.25, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if sel.Bit(i) != sel2.Bit(i) {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestBuildSelectionErrors(t *testing.T) {
	if _, err := buildSelection(10, 0.5, "abc", 1); err == nil {
		t.Error("non-numeric index should fail")
	}
	if _, err := buildSelection(10, 0.5, "10", 1); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := buildSelection(10, 0.5, "-1", 1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := buildSelection(10, 0, "", 1); err == nil {
		t.Error("zero fraction should fail")
	}
	if _, err := buildSelection(10, 1.5, "", 1); err == nil {
		t.Error("fraction > 1 should fail")
	}
}

func TestLoadKeyFromFile(t *testing.T) {
	sk, err := paillier.KeyGen(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "k.key")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := daemon.LoadKey(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(sk.N) != 0 {
		t.Error("loaded key differs")
	}
}

func TestLoadKeyErrors(t *testing.T) {
	if _, err := daemon.LoadKey(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Error("missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "junk.key")
	if err := os.WriteFile(path, []byte("not a key"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := daemon.LoadKey(path, 0); err == nil {
		t.Error("corrupt key should fail")
	}
}

func TestLoadKeyGeneratesFresh(t *testing.T) {
	sk, err := daemon.LoadKey("", 128)
	if err != nil {
		t.Fatal(err)
	}
	if sk == nil || sk.N.BitLen() != 128 {
		t.Errorf("fresh key generation broken")
	}
}

func TestValidateStockFlags(t *testing.T) {
	cases := []struct {
		name               string
		stock              string
		preprocess         bool
		storePath, jobdURL string
		wantConflict       bool
	}{
		{name: "no stock", stock: ""},
		{name: "no stock with preprocess", stock: "", preprocess: true},
		{name: "stock alone", stock: "localhost:7005"},
		{name: "stock with preprocess", stock: "localhost:7005", preprocess: true, wantConflict: true},
		{name: "stock with store", stock: "localhost:7005", storePath: "/tmp/x.psbs", wantConflict: true},
		{name: "stock with jobd", stock: "localhost:7005", jobdURL: "http://localhost:7006", wantConflict: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateStockFlags(tc.stock, tc.preprocess, tc.storePath, tc.jobdURL)
			if tc.wantConflict {
				if !errors.Is(err, errStockConflict) {
					t.Fatalf("err = %v, want errStockConflict", err)
				}
			} else if err != nil {
				t.Fatalf("unexpected err: %v", err)
			}
		})
	}
}
