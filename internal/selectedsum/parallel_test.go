package selectedsum

import (
	"errors"
	"testing"

	"privstats/internal/database"
	"privstats/internal/netsim"
)

func TestAbsorbParallelMatchesSequential(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table, sel, want := fixture(t, 130, 65)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 130, width)
	if err != nil {
		t.Fatal(err)
	}
	chunk := decodeChunk(t, body, 0, width)

	for _, workers := range []int{1, 2, 3, 8, 64} {
		srv, err := NewShardSession(pk, table.Column(), 130, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AbsorbParallel(chunk, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ct, err := srv.Finalize(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("workers=%d: sum=%v want %v", workers, got, want)
		}
	}
}

func TestAbsorbParallelValidation(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New(make([]uint32, 20))
	for i := range table.Values() {
		table.Values()[i] = uint32(i + 1)
	}
	sel, _ := database.NewSelection(20)
	sel.Set(3)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 20, width)
	if err != nil {
		t.Fatal(err)
	}

	srv, _ := NewShardSession(pk, table.Column(), 20, 0)
	// Wrong offset.
	if err := srv.AbsorbParallel(decodeChunk(t, body, 5, width), 4); !errors.Is(err, ErrChunkOutOfOrder) {
		t.Errorf("offset error = %v", err)
	}
	// Malformed ciphertext inside the chunk (zero bytes).
	bad := append([]byte{}, body...)
	for i := 0; i < width; i++ {
		bad[i] = 0
	}
	if err := srv.AbsorbParallel(decodeChunk(t, bad, 0, width), 4); err == nil {
		t.Error("zero ciphertext should fail in a worker")
	}
	// After finalize.
	srv2, _ := NewShardSession(pk, table.Column(), 20, 0)
	if err := srv2.AbsorbParallel(decodeChunk(t, body, 0, width), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if err := srv2.AbsorbParallel(decodeChunk(t, body, 20, width), 4); err == nil {
		t.Error("absorb after finalize should fail")
	}
}

func TestRunWithServerWorkers(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 150, 75)
	res, err := Run(sk, table, sel, Options{
		Link:          netsim.ShortDistance,
		ServerWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(want) != 0 {
		t.Errorf("sum=%v want %v", res.Sum, want)
	}
	// Also combined with batching.
	res, err = Run(sk, table, sel, Options{
		Link:          netsim.ShortDistance,
		ChunkSize:     30,
		Pipelined:     true,
		ServerWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(want) != 0 {
		t.Errorf("batched+parallel sum=%v want %v", res.Sum, want)
	}
}

func TestAbsorbParallelTinyChunkFallsBack(t *testing.T) {
	// Chunks smaller than 2*workers take the sequential path; result is
	// identical either way.
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{7, 11, 13})
	sel, _ := database.NewSelection(3)
	sel.Set(1)
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, 3, width)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := NewShardSession(pk, table.Column(), 3, 0)
	if err := srv.AbsorbParallel(decodeChunk(t, body, 0, width), 16); err != nil {
		t.Fatal(err)
	}
	ct, err := srv.Finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil || got.Int64() != 11 {
		t.Errorf("sum = %v (err %v), want 11", got, err)
	}
}
