package selectedsum

import (
	"errors"
	"math/big"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/paillier"
	"privstats/internal/testutil"
)

// TestFoldLanesLeaveNoGoroutine: a three-column session on four lanes folds
// and seals on goroutines of its own, and none of them is still running once
// Absorb or finalize has returned. The sums are the plaintext's.
func TestFoldLanesLeaveNoGoroutine(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	pk := sk.PublicKey()
	const n, chunkRows = 512, 256
	values := make([]uint32, n)
	for i := range values {
		values[i] = uint32(i*7919 + 1)
	}
	table := database.New(values)
	sel, err := database.GenerateSelection(n, n/3, database.PatternRandom, 3)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncryptRange(Online{PK: pk}, sel, 0, n, pk.CiphertextSize())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServerSession(pk, []database.Column{table.Column(), table.SquareColumn(), database.Ones(n)}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.lanes = 4
	baseline := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		testutil.Eventually(t, 5*time.Second, "the lanes started in "+after+" to exit", func() bool {
			return runtime.NumGoroutine() <= baseline
		})
	}
	width := pk.CiphertextSize()
	for lo := 0; lo < n; lo += chunkRows {
		if err := srv.Absorb(decodeChunk(t, body[lo*width:(lo+chunkRows)*width], uint64(lo), width)); err != nil {
			t.Fatal(err)
		}
		settled("Absorb")
	}
	sums, err := srv.finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	settled("finalize")
	want := [3]*big.Int{new(big.Int), new(big.Int), new(big.Int)}
	for i, v := range values {
		if sel.Bit(i) == 1 {
			x := new(big.Int).SetUint64(uint64(v))
			want[0].Add(want[0], x)
			want[1].Add(want[1], x.Mul(x, x))
			want[2].Add(want[2], big.NewInt(1))
		}
	}
	for c, ct := range sums {
		if got, err := sk.Decrypt(ct); err != nil || got.Cmp(want[c]) != 0 {
			t.Errorf("column %d decrypts to %v (%v), want %v", c, got, err, want[c])
		}
	}
}

// TestAbsorbBadChunkNamesGlobalRow: on the streaming fold a chunk is
// validated whole before any row is folded, and the refusal names the bad
// row by its global index, Offset+k, in a shard based beyond 2^33.
func TestAbsorbBadChunkNamesGlobalRow(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const base, n, bad = uint64(1) << 33, 8, 5
	table := database.New([]uint32{1, 2, 3, 4, 5, 6, 7, 8})
	sel, _ := database.NewSelection(n)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, n, width)
	if err != nil {
		t.Fatal(err)
	}
	clear(body[bad*width : (bad+1)*width])
	for _, lanes := range []int{1, 2} {
		srv, err := NewShardSession(pk, table.Column(), n, base)
		if err != nil {
			t.Fatal(err)
		}
		srv.lanes = lanes
		err = srv.Absorb(decodeChunk(t, body, base, width))
		if !errors.Is(err, paillier.ErrCiphertextForm) || !strings.Contains(err.Error(), strconv.FormatUint(base+bad, 10)) {
			t.Errorf("lanes=%d: err = %v, want ErrCiphertextForm naming row %d", lanes, err, base+bad)
		}
	}
}
