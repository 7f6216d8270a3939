package paillier

import (
	"context"
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privstats/internal/testutil"
)

func TestFillContextCancelledBeforeStart(t *testing.T) {
	sk := testKey(t, 128)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	store := NewBitStore(sk.Public())
	if err := store.FillContext(ctx, 5, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("store fill on cancelled ctx: err = %v", err)
	}
	if z, o := store.Depth(); z != 0 || o != 0 {
		t.Errorf("cancelled fill left (%d,%d) bits", z, o)
	}
}

// TestFillContextPublishesChunks pins the chunked-fill behavior: a concurrent
// reader sees stock before the whole fill lands, and cancelling mid-fill
// keeps what already landed.
func TestFillContextPublishesChunks(t *testing.T) {
	sk := testKey(t, 128)
	store := NewBitStore(sk.Public())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const want = 10 * fillChunk
	done := make(chan error, 1)
	go func() { done <- store.FillContext(ctx, want, 0) }()

	// Wait for the first chunk, then cancel mid-fill.
	finished := false
	testutil.Eventually(t, 10*time.Second, "the first chunk of the fill", func() bool {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
			return true
		default:
		}
		z, _ := store.Depth()
		return z > 0
	})
	if finished {
		// The fill finished before we observed a partial chunk — the
		// machine is fast, not wrong. Depth must be complete.
		if z, _ := store.Depth(); z != want {
			t.Fatalf("finished fill left %d zeros, want %d", z, want)
		}
		return
	}
	cancel()
	err := <-done
	z, _ := store.Depth()
	if err == nil {
		if z != want {
			t.Fatalf("fill returned nil but left %d of %d zeros", z, want)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-fill cancel: err = %v", err)
	}
	if z == 0 || z >= want {
		t.Errorf("cancelled fill kept %d zeros, want partial (0, %d)", z, want)
	}
	// Whatever landed is real stock: it decrypts to the right bit.
	ct, err := store.DrawBit(0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sk.Decrypt(ct); err != nil || v.Sign() != 0 {
		t.Fatalf("partial stock decrypts to %v (err %v)", v, err)
	}
}

func TestBitStoreDepthTakeAddStock(t *testing.T) {
	sk := testKey(t, 128)
	store := NewBitStore(sk.Public())
	if err := store.Fill(5, 3); err != nil {
		t.Fatal(err)
	}
	if z, o := store.Depth(); z != 5 || o != 3 {
		t.Fatalf("Depth = (%d,%d), want (5,3)", z, o)
	}

	// Take never generates: it returns at most what is stocked.
	got := store.Take(0, 10)
	if len(got) != 5 {
		t.Fatalf("Take(0,10) returned %d, want 5", len(got))
	}
	if z, _ := store.Depth(); z != 0 {
		t.Fatalf("Take left %d zeros", z)
	}
	if store.OnlineFallbacks() != 0 {
		t.Error("Take must not count fallbacks")
	}

	// The taken stock transfers into another store and stays correct.
	other := NewBitStore(sk.Public())
	if err := other.AddStock(0, got); err != nil {
		t.Fatal(err)
	}
	ct, err := other.DrawBit(0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sk.Decrypt(ct); err != nil || v.Sign() != 0 {
		t.Fatalf("transferred stock decrypts to %v (err %v)", v, err)
	}

	if err := other.AddStock(2, got); err == nil {
		t.Error("AddStock(2, ...) accepted a non-bit")
	}
	if err := other.AddStock(1, []*Ciphertext{nil}); err == nil {
		t.Error("AddStock accepted a nil ciphertext")
	}
}

// The three storepersist error paths an operator actually hits: a file cut
// short by a crash or full disk, a file from before a key rotation, and a
// file whose ciphertext payload rotted.

func TestLoadBitStoreTruncatedFile(t *testing.T) {
	sk := testKey(t, 128)
	store := NewBitStore(sk.Public())
	if err := store.Fill(3, 3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.psbs")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{0, 10, info.Size() / 2, info.Size() - 1} {
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBitStore(path, sk.Public()); !errors.Is(err, ErrCorruptStore) {
			t.Errorf("truncated to %d bytes: err = %v, want ErrCorruptStore", size, err)
		}
	}
}

func TestLoadBitStoreWrongKeyFingerprint(t *testing.T) {
	oldKey := testKey(t, 128)
	// A freshly generated key of the same size: only the fingerprint differs
	// (testKey caches per size, so it would hand back the same key).
	newKey, err := KeyGen(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	store := NewBitStore(oldKey.Public())
	if err := store.Fill(2, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.psbs")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBitStore(path, newKey.Public()); !errors.Is(err, ErrStoreKeyMismatch) {
		t.Errorf("rotated key: err = %v, want ErrStoreKeyMismatch", err)
	}
}

func TestLoadBitStoreCorruptCiphertextPayload(t *testing.T) {
	sk := testKey(t, 128)
	store := NewBitStore(sk.Public())
	if err := store.Fill(2, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.psbs")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first ciphertext (the payload starts after the
	// 60-byte header). Whether the flipped value still parses as a
	// ciphertext or not, the checksum must catch it.
	raw[60+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBitStore(path, sk.Public()); !errors.Is(err, ErrCorruptStore) {
		t.Errorf("corrupt payload: err = %v, want ErrCorruptStore", err)
	}
}
