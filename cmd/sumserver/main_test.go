package main

import (
	"errors"
	"net"
	"path/filepath"
	"slices"
	"testing"

	"privstats/internal/homomorphic"
	"privstats/internal/testutil"
)

func TestLoadTableGenerate(t *testing.T) {
	table, err := loadTable("", 500, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 500 {
		t.Errorf("len = %d", table.Len())
	}
}

func TestLoadTableGenerateAndSaveThenLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.psdb")
	gen, err := loadTable("", 200, 9, path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadTable(path, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != gen.Len() {
		t.Fatalf("len %d vs %d", loaded.Len(), gen.Len())
	}
	for i := 0; i < gen.Len(); i++ {
		if loaded.Value(i) != gen.Value(i) {
			t.Fatal("saved table differs")
		}
	}
}

func TestLoadTableRejectsBothSources(t *testing.T) {
	if _, err := loadTable("x.psdb", 100, 1, ""); err == nil {
		t.Error("both -db and -generate should fail")
	}
}

func TestLoadTableNoSourceReturnsError(t *testing.T) {
	// The old implementation called os.Exit(2) here, which skipped
	// deferred cleanup and made this path untestable; now main owns the
	// exit decision.
	_, err := loadTable("", 0, 0, "")
	if !errors.Is(err, errNoSource) {
		t.Errorf("err = %v, want errNoSource", err)
	}
}

func TestWrapConnThrottles(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	for _, mode := range []string{"", "modem", "wireless"} {
		if _, err := wrapConn(a, mode); err != nil {
			t.Errorf("mode %q: %v", mode, err)
		}
	}
	if _, err := wrapConn(a, "carrier-pigeon"); err == nil {
		t.Error("unknown throttle should fail")
	}
}

func TestStatsAddrInUseFailsStartup(t *testing.T) {
	testutil.RequireStatsAddrInUseFails(t, "sumserver", "serving 16 rows", "-listen", "127.0.0.1:0", "-generate", "16")
}

// TestAcceptsOnlyPaillier pins the schemes a hello may name: Paillier alone,
// so a hello naming any other scheme is refused as unknown.
func TestAcceptsOnlyPaillier(t *testing.T) {
	if got := homomorphic.Schemes(); !slices.Equal(got, []string{"paillier"}) {
		t.Fatalf("registered schemes = %v, want [paillier]", got)
	}
}
