package stock

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privstats/internal/testutil"
)

func TestNewInventoryValidatesSnapshotKnobs(t *testing.T) {
	bad := []InventoryConfig{
		{Targets: Targets{Zeros: 1}, StateDir: "x", SnapshotEvery: -time.Second},
		{Targets: Targets{Zeros: 1}, StateDir: "x", SnapshotDelta: -1},
		{Targets: Targets{Zeros: 1}, SnapshotEvery: time.Second}, // no StateDir to snapshot into
	}
	for i, cfg := range bad {
		if _, err := NewInventory(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// abandon stops an inventory's goroutines WITHOUT the graceful SaveAll —
// the closest an in-process test gets to a SIGKILL.
func abandon(i *Inventory) {
	i.cancel()
	i.wg.Wait()
}

func TestInventorySnapshotsOnInterval(t *testing.T) {
	sk, _ := testKeys(t)
	dir := t.TempDir()
	cfg := InventoryConfig{
		Targets:       Targets{Zeros: 6, Ones: 3},
		StateDir:      dir,
		SnapshotEvery: 20 * time.Millisecond,
		Logf:          discardLogf,
	}
	inv, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Admit(sk.Public()); err != nil {
		t.Fatal(err)
	}
	waitForDepths(t, inv, sk.Public(), 6, 3)

	// Without any Close, a snapshot pass lands within a few intervals and
	// leaves the full file set (including the public key) behind.
	testutil.Eventually(t, 10*time.Second, "a periodic snapshot", func() bool {
		return inv.Metrics().Snapshots.Value() > 0
	})
	abandon(inv) // crash: no graceful persist

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	exts := map[string]bool{}
	for _, e := range entries {
		exts[filepath.Ext(e.Name())] = true
	}
	for _, ext := range []string{".bits", ".pk"} {
		if !exts[ext] {
			t.Errorf("snapshot left no %s file (have %v)", ext, entries)
		}
	}

	// A fresh daemon restores everything from the snapshot alone, before any
	// client hello, and the summary accounts for it.
	inv2, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inv2.Close()
	summary, err := inv2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if summary.Keys != 1 || summary.Bits == 0 || summary.Stale != 0 {
		t.Errorf("summary = %+v, want 1 key, >0 bits, 0 stale", summary)
	}
	z, o, _, ok := inv2.Depths(sk.Public())
	if !ok || z == 0 {
		t.Errorf("depths after RestoreAll = (%d,%d) ok=%v", z, o, ok)
	}
}

func TestInventorySnapshotOnDrainDelta(t *testing.T) {
	sk, _ := testKeys(t)
	cfg := InventoryConfig{
		Targets:       Targets{Zeros: 8, Ones: 2},
		StateDir:      t.TempDir(),
		SnapshotEvery: time.Hour, // the interval alone would never fire in-test
		SnapshotDelta: 3,
		Logf:          discardLogf,
	}
	inv, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	k, err := inv.Admit(sk.Public())
	if err != nil {
		t.Fatal(err)
	}
	waitForDepths(t, inv, sk.Public(), 8, 2)

	// Serving fewer items than the delta must not trigger a snapshot: take
	// counts the two items toward the delta and sends no wake, and only a
	// wake or the hour-long interval runs the snapshotter.
	inv.take(k, &Request{Kind: KindZeroBits, Count: 2})
	if d, woken, n := inv.drained.Load(), len(inv.snapWake), inv.Metrics().Snapshots.Value(); d != 2 || woken != 0 || n != 0 {
		t.Fatalf("after 2 drained items (delta 3): %d counted, %d wakes pending, %d snapshots; want 2, 0, 0", d, woken, n)
	}
	// ...but crossing it wakes the snapshotter promptly.
	inv.take(k, &Request{Kind: KindZeroBits, Count: 2})
	testutil.Eventually(t, 10*time.Second, "the drain-delta snapshot", func() bool {
		return inv.Metrics().Snapshots.Value() > 0
	})
}

func TestRestoreAllCountsStaleFiles(t *testing.T) {
	sk, _ := testKeys(t)
	dir := t.TempDir()
	cfg := InventoryConfig{
		Targets:  Targets{Zeros: 4, Ones: 2},
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
	waitForDepths(t, inv, sk.Public(), 4, 2)
	if err := inv.Close(); err != nil {
		t.Fatal(err)
	}

	// A garbage public-key file and an unrelated file land next to the real
	// snapshot; only the .pk garbage counts as stale, the rest is ignored.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.pk"), []byte("not a key"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o600); err != nil {
		t.Fatal(err)
	}

	inv2, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inv2.Close()
	summary, err := inv2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if summary.Keys != 1 || summary.Stale != 1 {
		t.Errorf("summary = %+v, want 1 key and 1 stale", summary)
	}
	if summary.Bits != 6 {
		t.Errorf("summary = %+v, want 6 bits", summary)
	}
	// The summary renders as the structured one-liner the daemon logs.
	want := "keys_restored=1 bits_loaded=6 stale_discarded=1"
	if got := summary.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRestoreAllNoStateDir(t *testing.T) {
	inv, err := NewInventory(InventoryConfig{Targets: Targets{Zeros: 1}, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	summary, err := inv.RestoreAll()
	if err != nil || summary != (RestoreSummary{}) {
		t.Fatalf("RestoreAll without StateDir: %+v, %v", summary, err)
	}
}

func TestRestoreAllUnreadableStateDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "flat-file")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	inv, err := NewInventory(InventoryConfig{
		Targets:  Targets{Zeros: 1},
		StateDir: file,
		Logf:     discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inv.Close() }() // Close will also fail to persist; ignore
	if _, err := inv.RestoreAll(); err == nil || !strings.Contains(err.Error(), "state dir") {
		t.Errorf("RestoreAll over a flat file: %v", err)
	}
}
