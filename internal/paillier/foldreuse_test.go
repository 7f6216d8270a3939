package paillier

import (
	"fmt"
	"testing"

	"privstats/internal/testutil"
)

// A fold borrows its batch and its lane windows from the N² Reducer and gives
// them back in Sums; these tests pin what the next fold under the key gets.

// TestFoldReusesWindows: a fold under a key that has folded before takes its
// windows from the ones the last fold gave back, so a fold whose scalars
// reach every window allocates no more often than one whose scalars reach
// one.
func TestFoldReusesWindows(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sk := testKey(t, 512)
	pk := sk.Public()
	if pk.reducer().Lanes() == 1 {
		t.Skip("no lane kernel: the chain kernel's buckets are not pooled")
	}
	cts, wide, _ := foldFixture(t, pk, 256, ^uint64(0), 46)
	body := encodeRows(cts)
	narrow := make([]uint64, len(wide))
	for i := range narrow {
		narrow[i] = 1 // one bucket of window 0
	}
	allocs := func(ks []uint64) float64 {
		fold := func() {
			f := pk.NewFold(len(ks), 1)
			if _, err := f.AddChunk(body, [][]uint64{ks}, 1); err != nil {
				t.Fatal(err)
			}
			f.Sums(1)
		}
		fold()
		return testing.AllocsPerRun(20, fold)
	}
	if one, every := allocs(narrow), allocs(wide); one != every {
		t.Errorf("a fold reaching one window allocates %v times, one reaching every window %v: a window is allocated per fold", one, every)
	}
}

// TestFoldAfterFoldExact: folds one after another under one key, over
// different rows and scalars, each decrypt to their own rows' sum exactly,
// on one lane and two: a bucket a fold left full is empty for the next.
func TestFoldAfterFoldExact(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	const rows = 300
	for round := range 4 {
		cts, ks, want := foldFixture(t, pk, rows, 0xffff, int64(460+round))
		f := pk.NewFold(rows, 1)
		if _, err := f.AddChunk(encodeRows(cts), [][]uint64{ks}, 1+round%2); err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(f.Sums(1 + round%2)[0])
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("fold %d decrypts to %v, want %v", round, got, want)
		}
	}
}

// TestFoldCallAfterSumsPanics: Sums is a fold's last call.
func TestFoldCallAfterSumsPanics(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	cts, ks, _ := foldFixture(t, pk, 4, 0xff, 47)
	body := encodeRows(cts)
	for name, call := range map[string]func(*Fold){
		"AddChunk": func(f *Fold) { f.AddChunk(body, [][]uint64{ks}, 1) },
		"Sums":     func(f *Fold) { f.Sums(1) },
	} {
		f := pk.NewFold(len(cts), 1)
		if _, err := f.AddChunk(body, [][]uint64{ks}, 1); err != nil {
			t.Fatal(err)
		}
		f.Sums(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Sums did not panic", name)
				}
			}()
			call(f)
		}()
	}
}

// BenchmarkFoldAddChunk folds one 1 024-row chunk of encoded ciphertexts
// and 32-bit scalars on one lane under a 512- and a 1024-bit key: "steady"
// adds it to a fold that has seen many such chunks, "session" opens a fold
// for the chunk alone and takes its sum, as a shard session of 1 024 rows
// does.
func BenchmarkFoldAddChunk(b *testing.B) {
	const rows = 1024
	for _, bits := range []int{512, 1024} {
		sk := testKey(b, bits)
		pk := sk.Public()
		cts, ks, _ := foldFixture(b, pk, rows, 0xffffffff, 48)
		body, cols := encodeRows(cts), [][]uint64{ks}
		b.Run(fmt.Sprintf("bits=%d/steady", bits), func(b *testing.B) {
			f := pk.NewFold(1<<30, 1)
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for range b.N {
				if _, err := f.AddChunk(body, cols, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bits=%d/session", bits), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for range b.N {
				f := pk.NewFold(rows, 1)
				if _, err := f.AddChunk(body, cols, 1); err != nil {
					b.Fatal(err)
				}
				f.Sums(1)
			}
		})
	}
}
