package selectedsum

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"privstats/internal/database"
	"privstats/internal/paillier"
	"privstats/internal/wire"
)

// Multi-column sessions: one uplink of the encrypted selection, one MsgSum
// per requested column in ascending bit order.

// TestQueryColumnsEndToEnd runs the three-column session at 90 rows and at
// one to four, the shortest sessions the fold serves.
func TestQueryColumnsEndToEnd(t *testing.T) {
	sk := testKey(t)
	for _, tc := range []struct{ n, m, chunk int }{{90, 45, 10}, {1, 1, 0}, {2, 1, 0}, {3, 2, 1}, {4, 3, 0}} {
		table, sel, wantSum := fixture(t, tc.n, tc.m)
		wantSq, err := table.SelectedSumOfSquares(sel)
		if err != nil {
			t.Fatal(err)
		}
		wantCount := big.NewInt(int64(sel.Count()))

		conn, errc := servePair(t, table)
		sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, nil), tc.chunk, wire.ColValue|wire.ColSquare|wire.ColOnes)
		if err != nil {
			t.Fatalf("n=%d: QueryColumns: %v", tc.n, err)
		}
		if len(sums) != 3 {
			t.Fatalf("n=%d: got %d sums, want 3", tc.n, len(sums))
		}
		if sums[0].Cmp(wantSum) != 0 {
			t.Errorf("n=%d: value sum = %v, want %v", tc.n, sums[0], wantSum)
		}
		if sums[1].Cmp(wantSq) != 0 {
			t.Errorf("n=%d: square sum = %v, want %v", tc.n, sums[1], wantSq)
		}
		if sums[2].Cmp(wantCount) != 0 {
			t.Errorf("n=%d: ones sum = %v, want %v", tc.n, sums[2], wantCount)
		}
		if err := <-errc; err != nil {
			t.Errorf("n=%d: Serve: %v", tc.n, err)
		}
	}
}

func TestQueryColumnsValueOnlyMatchesQuery(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 40, 17)
	conn, errc := servePair(t, table)

	// A value-only column set degrades to the classic session.
	sums, err := QueryVector(conn, sk, SelectionSource(sk, sel, nil), 0, wire.ColValue)
	if err != nil {
		t.Fatalf("QueryColumns: %v", err)
	}
	if len(sums) != 1 || sums[0].Cmp(want) != 0 {
		t.Errorf("sums = %v, want [%v]", sums, want)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestServeRejectsUnknownColumnBits(t *testing.T) {
	table := database.New([]uint32{1, 2, 3})
	conn, errc := servePair(t, table)

	hello := wire.Hello{
		Version:   wire.Version,
		Scheme:    "paillier",
		PublicKey: mustKeyBytes(t),
		VectorLen: 3,
		Columns:   1 << 9,
	}
	if err := conn.Send(wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.MsgError {
		t.Fatalf("expected MsgError, got %#x", byte(f.Type))
	}
	perr := wire.DecodeError(f.Payload)
	if wire.ErrorCodeOf(perr) != wire.CodeProtocol {
		t.Errorf("error code = %q, want protocol: %v", wire.ErrorCodeOf(perr), perr)
	}
	if !strings.Contains(perr.Error(), "unknown column") {
		t.Errorf("error should name the unknown column bits: %v", perr)
	}
	if serr := <-errc; serr == nil {
		t.Error("Serve should fail on unknown column bits")
	}
}

func mustKeyBytes(t *testing.T) []byte {
	t.Helper()
	b, err := testKey(t).PublicKey().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMultiColumnRejectionIdentical pins that decoding each uplink
// ciphertext once per chunk rejects exactly what one session per column
// rejected: a malformed or out-of-range ciphertext fails the chunk with the
// same error whatever columns the session folds, even on a row whose scalar
// is zero in every column, and a session that failed refuses to go on.
func TestMultiColumnRejectionIdentical(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const n, badRow = 20, 7
	values := make([]uint32, n)
	for i := range values {
		values[i] = uint32(i + 1)
	}
	values[badRow] = 0 // value and square skip the row; ones does not
	table := database.New(values)
	sel, _ := database.NewSelection(n)
	width := pk.CiphertextSize()
	good, err := EncryptRange(Online{PK: pk}, sel, 0, n, width)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		fill byte
	}{
		{"zero", 0x00},
		{"above N²", 0xff},
	} {
		bad := append([]byte{}, good...)
		for i := badRow * width; i < (badRow+1)*width; i++ {
			bad[i] = tc.fill
		}
		var messages []string
		for _, columns := range [][]database.Column{
			{table.Column(), table.SquareColumn(), database.Ones(n)},
			{table.Column()}, // the bad row's only scalar is zero
		} {
			srv, err := newServerSession(pk, columns, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			err = srv.Absorb(decodeChunk(t, bad, 0, width))
			if !errors.Is(err, paillier.ErrCiphertextForm) {
				t.Fatalf("%s, %d columns: err = %v, want ErrCiphertextForm", tc.name, len(columns), err)
			}
			messages = append(messages, err.Error())
			if err := srv.Absorb(decodeChunk(t, good, 0, width)); err == nil {
				t.Errorf("%s: a session that failed mid-chunk accepted another chunk", tc.name)
			}
			if _, err := srv.finalize(nil); err == nil {
				t.Errorf("%s: a session that failed mid-chunk finalized", tc.name)
			}
		}
		if messages[1] != messages[0] {
			t.Errorf("%s: rejection differs across column sets: %q vs %q", tc.name, messages[1], messages[0])
		}
	}
}
