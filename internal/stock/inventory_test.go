package stock

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"privstats/internal/metrics"
	"privstats/internal/paillier"
	"privstats/internal/testutil"
)

func discardLogf(string, ...any) {}

// Key generation dominates these tests; share one 128-bit key (and one
// distinct second key) across the package.
var (
	keyOnce  sync.Once
	sharedSK *paillier.PrivateKey
	otherSK  *paillier.PrivateKey
	keyErr   error
)

func testKeys(t testing.TB) (*paillier.PrivateKey, *paillier.PrivateKey) {
	t.Helper()
	keyOnce.Do(func() {
		sharedSK, keyErr = paillier.KeyGen(rand.Reader, 128)
		if keyErr != nil {
			return
		}
		otherSK, keyErr = paillier.KeyGen(rand.Reader, 128)
	})
	if keyErr != nil {
		t.Fatal(keyErr)
	}
	return sharedSK, otherSK
}

// waitForDepths waits until pk's inventories reach (zeros, ones).
func waitForDepths(t *testing.T, inv *Inventory, pk *paillier.PublicKey, zeros, ones int) {
	t.Helper()
	testutil.Eventually(t, 20*time.Second, fmt.Sprintf("stock depths (%d,%d)", zeros, ones), func() bool {
		z, o, _, ok := inv.Depths(pk)
		return ok && z >= zeros && o >= ones
	})
}

func TestNewInventoryValidates(t *testing.T) {
	bad := []InventoryConfig{
		{},                            // all-zero targets
		{Targets: Targets{Zeros: -1}}, // negative target
		{Targets: Targets{Zeros: 1}, MaxKeys: -1},               // negative cap
		{Targets: Targets{Zeros: 1}, Rate: -5},                  // negative rate
		{Targets: Targets{Zeros: 1}, RefillEvery: -time.Second}, // negative poll
	}
	for i, cfg := range bad {
		if _, err := NewInventory(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestInventoryRefillsToTargetsAndServes(t *testing.T) {
	sk, _ := testKeys(t)
	inv, err := NewInventory(InventoryConfig{
		Targets: Targets{Zeros: 8, Ones: 4},
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()

	k, err := inv.Admit(sk.Public())
	if err != nil {
		t.Fatal(err)
	}
	// Admitting the same key again returns the same inventory, not a slot.
	again, err := inv.Admit(sk.Public())
	if err != nil || again != k {
		t.Fatalf("re-admit: %v, same=%v", err, again == k)
	}
	waitForDepths(t, inv, sk.Public(), 8, 4)

	// Serving drains stock and every item decrypts to the right plaintext.
	batch := inv.take(k, &Request{Kind: KindOneBits, Count: 3})
	if batch.Count() != 3 || batch.Kind != KindOneBits {
		t.Fatalf("take returned %d of kind %v", batch.Count(), batch.Kind)
	}
	for i := 0; i < batch.Count(); i++ {
		ct, err := sk.Public().ParseCiphertext(batch.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := sk.Decrypt(ct); err != nil || v.Int64() != 1 {
			t.Fatalf("served bit decrypts to %v (err %v)", v, err)
		}
	}

	// An oversized request returns what's on hand, never blocks or generates.
	batch = inv.take(k, &Request{Kind: KindZeroBits, Count: MaxBatchItems})
	if batch.Count() > 8 {
		t.Fatalf("take returned %d zeros, stocked only 8", batch.Count())
	}
	served := 3 + batch.Count()

	// The refiller notices the drain and tops back up. It sets the depth
	// gauges after each chunk it publishes and counts the chunk first, so
	// the gauges, not the stock, say when the counters are complete.
	var row metrics.KeyStockSnapshot
	testutil.Eventually(t, 20*time.Second, "depth gauges back at (8,4)", func() bool {
		m := inv.Metrics().Snapshot()
		if len(m.Keys) != 1 {
			t.Fatalf("metrics rows = %d", len(m.Keys))
		}
		row = m.Keys[0]
		return row.DepthZeros == 8 && row.DepthOnes == 4
	})
	if row.GeneratedBits < 12+int64(served) {
		t.Errorf("generated counters = %+v", row)
	}
	if row.ServedBits != int64(served) || row.ServedBatches != 2 {
		t.Errorf("served counters = %+v", row)
	}
}

func TestInventoryMaxKeys(t *testing.T) {
	sk, other := testKeys(t)
	inv, err := NewInventory(InventoryConfig{
		Targets: Targets{Zeros: 1},
		MaxKeys: 1,
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	if _, err := inv.Admit(sk.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Admit(other.Public()); !errors.Is(err, ErrInventoryFull) {
		t.Fatalf("second key: err = %v, want ErrInventoryFull", err)
	}
	// The admitted key is unaffected.
	if _, err := inv.Admit(sk.Public()); err != nil {
		t.Fatalf("re-admit after full: %v", err)
	}
}

func TestInventoryPersistsAndRestores(t *testing.T) {
	sk, _ := testKeys(t)
	dir := t.TempDir()
	cfg := InventoryConfig{
		Targets:  Targets{Zeros: 6, Ones: 3},
		StateDir: dir,
		Logf:     discardLogf,
	}

	inv, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Admit(sk.Public()); err != nil {
		t.Fatal(err)
	}
	waitForDepths(t, inv, sk.Public(), 6, 3)
	if err := inv.Close(); err != nil {
		t.Fatal(err)
	}

	// A <label>.rnd left by an older daemon, which also stocked r^N
	// randomizers, sits beside the snapshot. Garbage bytes: a restore that
	// read it would discard it and count it stale.
	fp, err := paillier.KeyFingerprint(sk.Public())
	if err != nil {
		t.Fatal(err)
	}
	rndPath := filepath.Join(dir, hex.EncodeToString(fp[:8])+".rnd")
	rnd := []byte("r^N stock of an older stockd")
	if err := os.WriteFile(rndPath, rnd, 0o600); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon restores the persisted stock synchronously on admission.
	inv2, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := inv2.Admit(sk.Public())
	if err != nil {
		t.Fatal(err)
	}
	if z, o := k.bits.Depth(); z != 6 || o != 3 {
		t.Errorf("restored bits = (%d,%d), want (6,3)", z, o)
	}
	inv2.mu.Lock()
	bits, stale := inv2.restoredBits, inv2.restoredStale
	inv2.mu.Unlock()
	if bits != 9 || stale != 0 {
		t.Errorf("restore counted %d bits and %d stale files, want 9 and 0", bits, stale)
	}
	if err := inv2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(rndPath); err != nil || !bytes.Equal(got, rnd) {
		t.Errorf("the older daemon's .rnd after restore and persist: %q, %v; want it untouched", got, err)
	}
}

func TestInventoryDiscardsRotatedKeyState(t *testing.T) {
	sk, other := testKeys(t)
	dir := t.TempDir()
	cfg := InventoryConfig{
		Targets:  Targets{Zeros: 4, Ones: 2},
		StateDir: dir,
		Logf:     discardLogf,
	}

	// Fill and persist under the old key.
	inv, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Admit(sk.Public()); err != nil {
		t.Fatal(err)
	}
	waitForDepths(t, inv, sk.Public(), 4, 2)
	if err := inv.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate an operator replaying the old state against a rotated key:
	// copy the old key's files onto the new key's label paths.
	oldFP, _ := paillier.KeyFingerprint(sk.Public())
	newFP, _ := paillier.KeyFingerprint(other.Public())
	oldLabel := hex.EncodeToString(oldFP[:8])
	newLabel := hex.EncodeToString(newFP[:8])
	for _, ext := range []string{".bits"} {
		data, err := os.ReadFile(filepath.Join(dir, oldLabel+ext))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, newLabel+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	inv2, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inv2.Close()
	k, err := inv2.Admit(other.Public())
	if err != nil {
		t.Fatal(err)
	}
	// The stale files fail the fingerprint check and are discarded; the
	// refiller regenerates, and everything served decrypts under the NEW key.
	waitForDepths(t, inv2, other.Public(), 4, 2)
	batch := inv2.take(k, &Request{Kind: KindZeroBits, Count: 4})
	if batch.Count() == 0 {
		t.Fatal("no stock after refill")
	}
	for i := 0; i < batch.Count(); i++ {
		ct, err := other.Public().ParseCiphertext(batch.At(i))
		if err != nil {
			t.Fatalf("served ciphertext does not parse under the new key: %v", err)
		}
		if v, err := other.Decrypt(ct); err != nil || v.Sign() != 0 {
			t.Fatalf("served bit decrypts to %v (err %v) — stale stock leaked", v, err)
		}
	}
}

// TestInventoryCloseCancelsLongRefill pins the satellite behavior the
// chunked FillContext exists for: a rate-limited refill that would take tens
// of seconds must not hold up daemon shutdown.
func TestInventoryCloseCancelsLongRefill(t *testing.T) {
	sk, _ := testKeys(t)
	inv, err := NewInventory(InventoryConfig{
		Targets: Targets{Zeros: 1000},
		Rate:    50, // 20s to reach target — shutdown must not wait for it
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := inv.Admit(sk.Public())
	if err != nil {
		t.Fatal(err)
	}
	// Once the refiller has landed its first slice, it is mid-fill: waiting
	// on the rate limiter for the next. Close then.
	testutil.Eventually(t, 10*time.Second, "the refiller's first slice", func() bool {
		return k.km.GeneratedBits.Value() > 0
	})
	done := make(chan error, 1)
	go func() { done <- inv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a rate-limited refill")
	}
}

func TestRateLimiterPacesAndCancels(t *testing.T) {
	l := newRateLimiter(1000) // 1ms per item
	start := time.Now()
	ctx := context.Background()
	// First reservation is immediate; the next must wait ~64ms.
	if err := l.wait(ctx, 64); err != nil {
		t.Fatal(err)
	}
	if err := l.wait(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("second reservation returned after %v, want ~64ms", elapsed)
	}
	// Unlimited limiter never sleeps.
	if err := newRateLimiter(0).wait(ctx, 1<<20); err != nil {
		t.Fatal(err)
	}
}
