package selectedsum

import (
	"fmt"
	"math/big"
	"net"
	"testing"

	"privstats/internal/colstore"
	"privstats/internal/database"
	"privstats/internal/wire"
)

// Differential suite: a disk-backed colstore served through the full wire
// protocol must return byte-identical sums to the in-memory Table oracle —
// the pin that makes -table-dir a drop-in substrate swap.

// serveSourcePair wires a client to ServeSource over net.Pipe.
func serveSourcePair(t *testing.T, src database.Source) (*wire.Conn, chan error) {
	t.Helper()
	a, b := net.Pipe()
	clientConn := wire.NewConn(a)
	serverConn := wire.NewConn(b)
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSource(serverConn, src, nil)
		serverConn.Close()
	}()
	t.Cleanup(func() { clientConn.Close() })
	return clientConn, errc
}

// buildStore materializes table as a colstore directory and reopens it
// read-only, so the test folds against disk bytes, not write buffers.
func buildStore(t *testing.T, table *database.Table, blockRows int) *colstore.Store {
	t.Helper()
	dir := t.TempDir()
	s, err := colstore.BuildFrom(table, dir, colstore.Options{BlockRows: blockRows})
	if err != nil {
		t.Fatalf("BuildFrom: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := colstore.Open(dir, colstore.Options{ReadOnly: true, CacheBlocks: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { ro.Close() })
	return ro
}

func TestColstoreMatchesTableOracle(t *testing.T) {
	sk := testKey(t)
	const n = 300
	table, err := database.Generate(n, database.DistSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	// blockRows 64 leaves a partial tail block; 300 an exact fit is not.
	store := buildStore(t, table, 64)

	for _, tc := range []struct {
		name string
		m    int
		seed int64
	}{
		{"empty-selection", 0, 1},
		{"single-row", 1, 2},
		{"sparse", 10, 3},
		{"half", n / 2, 4},
		{"all-rows", n, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := database.GenerateSelection(n, tc.m, database.PatternRandom, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			wantSum, err := table.SelectedSum(sel)
			if err != nil {
				t.Fatal(err)
			}
			wantSq, err := table.SelectedSumOfSquares(sel)
			if err != nil {
				t.Fatal(err)
			}
			conn, errc := serveSourcePair(t, store)
			sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, nil), 32, wire.ColValue|wire.ColSquare)
			if err != nil {
				t.Fatalf("QueryColumns: %v", err)
			}
			if sums[0].Cmp(wantSum) != 0 {
				t.Errorf("value sum = %v, oracle %v", sums[0], wantSum)
			}
			if sums[1].Cmp(wantSq) != 0 {
				t.Errorf("square sum = %v, oracle %v", sums[1], wantSq)
			}
			if err := <-errc; err != nil {
				t.Errorf("ServeSource: %v", err)
			}
		})
	}
}

// TestChunkSizesAgree pins that how the uplink is chunked cannot change an
// answer: the served three-column session returns the plaintext oracle's
// sums at chunk lengths 1, 16, 100, 1024 and n.
func TestChunkSizesAgree(t *testing.T) {
	sk := testKey(t)
	const n = 1100
	table, err := database.Generate(n, database.DistUniform, 13)
	if err != nil {
		t.Fatal(err)
	}
	store := buildStore(t, table, 256)
	sel, err := database.GenerateSelection(n, n/2, database.PatternRandom, 17)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	wantSq, err := table.SelectedSumOfSquares(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := []*big.Int{wantSum, wantSq, big.NewInt(n / 2)}
	check := func(what string, got []*big.Int) {
		t.Helper()
		for c := range want {
			if got[c].Cmp(want[c]) != 0 {
				t.Errorf("%s: column %d sum = %v, oracle %v", what, c, got[c], want[c])
			}
		}
	}

	for _, chunkRows := range foldChunkSizes(n) {
		conn, errc := serveSourcePair(t, store)
		sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, nil), chunkRows, wire.ColValue|wire.ColSquare|wire.ColOnes)
		if err != nil {
			t.Fatalf("chunk %d: QueryColumns: %v", chunkRows, err)
		}
		check(fmt.Sprintf("served, chunk %d", chunkRows), sums)
		if err := <-errc; err != nil {
			t.Errorf("chunk %d: ServeSource: %v", chunkRows, err)
		}
	}
}

// TestColstoreShardViewsMatchTableShards folds against block-straddling
// sub-ranges of one store and checks each against the equivalent Table
// shard — the exact path a resharded backend serves after ExtractShard.
func TestColstoreShardViewsMatchTableShards(t *testing.T) {
	sk := testKey(t)
	const n = 256
	table, err := database.Generate(n, database.DistSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	store := buildStore(t, table, 32)

	// Ranges chosen to start/end mid-block and to straddle several blocks.
	for _, r := range [][2]int{{0, 256}, {0, 100}, {37, 201}, {95, 97}, {31, 33}, {128, 256}} {
		lo, hi := r[0], r[1]
		view, err := store.Range(lo, hi)
		if err != nil {
			t.Fatalf("Range(%d,%d): %v", lo, hi, err)
		}
		shard, err := table.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := database.GenerateSelection(hi-lo, (hi-lo)/2, database.PatternRandom, int64(lo))
		if err != nil {
			t.Fatal(err)
		}
		wantSum, err := shard.SelectedSum(sel)
		if err != nil {
			t.Fatal(err)
		}
		wantSq, err := shard.SelectedSumOfSquares(sel)
		if err != nil {
			t.Fatal(err)
		}
		conn, errc := serveSourcePair(t, view)
		sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, nil), 16, wire.ColValue|wire.ColSquare)
		if err != nil {
			t.Fatalf("range [%d,%d): QueryColumns: %v", lo, hi, err)
		}
		if sums[0].Cmp(wantSum) != 0 {
			t.Errorf("range [%d,%d): value sum = %v, oracle %v", lo, hi, sums[0], wantSum)
		}
		if sums[1].Cmp(wantSq) != 0 {
			t.Errorf("range [%d,%d): square sum = %v, oracle %v", lo, hi, sums[1], wantSq)
		}
		if err := <-errc; err != nil {
			t.Errorf("range [%d,%d): ServeSource: %v", lo, hi, err)
		}
	}
}

// TestColstoreExtractedShardMatchesOracle runs the full migration shape:
// extract a block-straddling range into its own directory, reopen it, and
// check the extracted store returns the same sums as the Table shard.
func TestColstoreExtractedShardMatchesOracle(t *testing.T) {
	sk := testKey(t)
	const n = 300
	table, err := database.Generate(n, database.DistSmall, 77)
	if err != nil {
		t.Fatal(err)
	}
	src := buildStore(t, table, 64)

	const lo, hi = 90, 250 // starts and ends mid-block, spans 3 block boundaries
	dst := t.TempDir()
	if err := colstore.ExtractShard(src, dst, lo, hi, colstore.Options{BlockRows: 32}); err != nil {
		t.Fatalf("ExtractShard: %v", err)
	}
	ext, err := colstore.Open(dst, colstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if got := ext.BaseRow(); got != lo {
		t.Errorf("extracted BaseRow = %d, want %d", got, lo)
	}

	shard, err := table.Shard(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.GenerateSelection(hi-lo, 80, database.PatternRandom, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := shard.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	wantSq, err := shard.SelectedSumOfSquares(sel)
	if err != nil {
		t.Fatal(err)
	}
	conn, errc := serveSourcePair(t, ext)
	sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, nil), 0, wire.ColValue|wire.ColSquare)
	if err != nil {
		t.Fatalf("QueryColumns: %v", err)
	}
	if sums[0].Cmp(wantSum) != 0 {
		t.Errorf("value sum = %v, oracle %v", sums[0], wantSum)
	}
	if sums[1].Cmp(wantSq) != 0 {
		t.Errorf("square sum = %v, oracle %v", sums[1], wantSq)
	}
	if err := <-errc; err != nil {
		t.Errorf("ServeSource: %v", err)
	}
}
