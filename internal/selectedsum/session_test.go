package selectedsum

import (
	"errors"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"privstats/internal/database"
	"privstats/internal/wire"
)

// decodeChunk builds a wire.IndexChunk from raw ciphertext bytes.
func decodeChunk(t testing.TB, body []byte, offset uint64, width int) *wire.IndexChunk {
	t.Helper()
	c := &wire.IndexChunk{Offset: offset, Ciphertexts: body, Width: width}
	decoded, err := wire.DecodeIndexChunk(c.Encode(), width)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

func TestServerSessionValidation(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{1, 2, 3})

	if _, err := NewShardSession(nil, table.Column(), 3, 0); err == nil {
		t.Error("nil key should fail")
	}
	if _, err := NewShardSession(pk, nil, 3, 0); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewShardSession(pk, table.Column(), 4, 0); !errors.Is(err, ErrVectorLength) {
		t.Errorf("length mismatch: err = %v", err)
	}
}

func TestServerSessionOutOfOrderChunk(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{5, 6, 7, 8})
	srv, err := NewShardSession(pk, table.Column(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := database.NewSelection(4)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 2, width)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong offset: expects 0.
	if err := srv.Absorb(decodeChunk(t, body, 2, width)); !errors.Is(err, ErrChunkOutOfOrder) {
		t.Errorf("err = %v, want ErrChunkOutOfOrder", err)
	}
	// Correct offset works.
	if err := srv.Absorb(decodeChunk(t, body, 0, width)); err != nil {
		t.Fatal(err)
	}
	// Replay of the same offset is out of order now.
	if err := srv.Absorb(decodeChunk(t, body, 0, width)); !errors.Is(err, ErrChunkOutOfOrder) {
		t.Errorf("replay: err = %v", err)
	}
	// Both rows were absorbed: the session takes the rest at offset 2 and
	// completes.
	rest, err := EncryptRange(Online{PK: pk}, sel, 2, 4, width)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(decodeChunk(t, rest, 2, width)); err != nil {
		t.Fatalf("rest at offset 2: %v", err)
	}
	if _, err := srv.Finalize(nil); err != nil {
		t.Errorf("finalize after 4 rows: %v", err)
	}
}

func TestServerSessionOverlongChunk(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{5, 6})
	srv, _ := NewShardSession(pk, table.Column(), 2, 0)
	sel, _ := database.NewSelection(3)
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 3, pk.CiphertextSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(decodeChunk(t, body, 0, pk.CiphertextSize())); !errors.Is(err, ErrVectorLength) {
		t.Errorf("3 ciphertexts into 2-row table: err = %v", err)
	}
}

func TestServerSessionMalformedCiphertext(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{9})
	srv, _ := NewShardSession(pk, table.Column(), 1, 0)
	width := pk.CiphertextSize()
	// All-zero bytes is not a valid ciphertext (0 ∉ (0, N²)).
	if err := srv.Absorb(decodeChunk(t, make([]byte, width), 0, width)); err == nil {
		t.Error("zero ciphertext should be rejected")
	}
}

func TestServerSessionIncompleteFinalize(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{1, 2, 3})
	srv, _ := NewShardSession(pk, table.Column(), 3, 0)
	if _, err := srv.Finalize(nil); !errors.Is(err, ErrIncomplete) {
		t.Errorf("err = %v, want ErrIncomplete", err)
	}
}

func TestServerSessionLifecycle(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{1, 2})
	srv, _ := NewShardSession(pk, table.Column(), 2, 0)
	sel, _ := database.NewSelection(2)
	sel.Set(1)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 2, width)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(decodeChunk(t, body, 0, width)); err != nil {
		t.Fatal(err)
	}
	ct, err := srv.Finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil || got.Int64() != 2 {
		t.Errorf("sum = %v (err %v), want 2", got, err)
	}
	// After finalize: both absorb and finalize must fail.
	if err := srv.Absorb(decodeChunk(t, body, 2, width)); err == nil {
		t.Error("absorb after finalize should fail")
	}
	if _, err := srv.Finalize(nil); err == nil {
		t.Error("double finalize should fail")
	}
}

func TestFinalizeWithBlinding(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{10, 20, 30})
	sel, _ := database.NewSelection(3)
	sel.Set(0)
	sel.Set(2) // true sum 40

	srv, _ := NewShardSession(pk, table.Column(), 3, 0)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 3, width)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(decodeChunk(t, body, 0, width)); err != nil {
		t.Fatal(err)
	}
	blind := big.NewInt(1_000_000)
	ct, err := srv.Finalize(blind)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 1_000_040 {
		t.Errorf("blinded sum = %v, want 1000040", got)
	}
}

// TestEmptyFoldSeal: a fold over an all-zero column adds no term, so its raw
// product is the same encryption of 0 in every session; the seal must still
// make the reply a fresh encryption of 0, or of the blind, so that two such
// sessions do not answer alike.
func TestEmptyFoldSeal(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const rows = 3
	table := database.New(make([]uint32, rows))
	sel, _ := database.NewSelection(rows)
	sel.Set(0)
	width := pk.CiphertextSize()
	for _, blind := range []*big.Int{nil, big.NewInt(12345)} {
		var replies [2][]byte
		for i := range replies {
			srv, err := NewShardSession(pk, table.Column(), rows, 0)
			if err != nil {
				t.Fatal(err)
			}
			body, err := EncryptRange(Online{PK: pk}, sel, 0, rows, width)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Absorb(decodeChunk(t, body, 0, width)); err != nil {
				t.Fatal(err)
			}
			ct, err := srv.Finalize(blind)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int)
			if blind != nil {
				want.Set(blind)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("blind %v: empty fold decrypts to %v, want %v", blind, got, want)
			}
			replies[i] = ct.Bytes()
		}
		if string(replies[0]) == string(replies[1]) {
			t.Errorf("blind %v: two empty folds replied with the same ciphertext", blind)
		}
	}
}

// TestAbsorbErrorReportsGlobalIndex pins the regression where per-row error
// messages computed the failing row as int(chunk.Offset)+i — truncating on
// 32-bit platforms and, before that, reporting the chunk-local index. A shard
// session based beyond 2^33 must name the full global uint64 index of a bad
// ciphertext in its second chunk, on a row whose scalar is zero.
func TestAbsorbErrorReportsGlobalIndex(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const base, bad = uint64(1) << 33, 6
	table := database.New([]uint32{0, 7, 0, 0, 0, 3, 0, 0})
	width := pk.CiphertextSize()
	sel, _ := database.NewSelection(8)
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 8, width)
	if err != nil {
		t.Fatal(err)
	}
	clear(body[bad*width : (bad+1)*width])

	srv, err := NewShardSession(pk, table.Column(), 8, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(decodeChunk(t, body[:4*width], base, width)); err != nil {
		t.Fatal(err)
	}
	wantIdx := strconv.FormatUint(base+bad, 10)
	if err := srv.Absorb(decodeChunk(t, body[4*width:], base+4, width)); err == nil || !strings.Contains(err.Error(), wantIdx) {
		t.Errorf("Absorb error %q does not name global index %s", err, wantIdx)
	}
}

func TestEncryptRangeValidation(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	sel, _ := database.NewSelection(5)
	width := pk.CiphertextSize()
	if _, err := EncryptRange(Online{PK: pk}, sel, -1, 3, width); err == nil {
		t.Error("negative lo should fail")
	}
	if _, err := EncryptRange(Online{PK: pk}, sel, 3, 2, width); err == nil {
		t.Error("hi < lo should fail")
	}
	if _, err := EncryptRange(Online{PK: pk}, sel, 0, 6, width); err == nil {
		t.Error("hi > len should fail")
	}
	// Empty range is fine.
	out, err := EncryptRange(Online{PK: pk}, sel, 2, 2, width)
	if err != nil || len(out) != 0 {
		t.Errorf("empty range: %v, %d bytes", err, len(out))
	}
}

func TestOnlineEncryptorRejectsBadBit(t *testing.T) {
	sk := testKey(t)
	if _, err := (Online{PK: sk.PublicKey()}).EncryptBit(2); err == nil {
		t.Error("bit 2 should fail")
	}
}
