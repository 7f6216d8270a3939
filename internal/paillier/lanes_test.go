package paillier

import (
	"math/big"
	"sync"
	"testing"

	"privstats/internal/mathx"
)

// Tests for the batched refills of FreshRandomizerCRT and of the public
// route, each run on a 512-bit key (whose p² and q² take mathx's ten-limb lane
// kernel and whose N² its twenty-limb one where the CPU has AVX512-IFMA) with
// the kernels on and forced off through mathx.ForceFallback.

// laneModes runs f twice on the cached 512-bit key's factors: once with a key
// built with the kernels on, once with one built with them forced off. The
// fallback key builds its own modulus table entry, which it keeps, and the
// table forgets it at once, so no later key of this N inherits it.
func laneModes(t *testing.T, f func(t *testing.T, sk *PrivateKey)) {
	base := testKey(t, 512)
	for _, on := range []bool{true, false} {
		name := "kernels"
		if !on {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			restore := func() {}
			if !on {
				forgetModuli()
				restore = mathx.ForceFallback()
			}
			sk, err := newPrivateKey(base.P, base.Q)
			restore()
			if !on {
				forgetModuli()
			}
			if err != nil {
				t.Fatal(err)
			}
			if !on && (sk.p2.Lanes() != 1 || sk.n2.Lanes() != 1) {
				t.Fatalf("p².Lanes() = %d, N².Lanes() = %d with the kernels forced off, want 1", sk.p2.Lanes(), sk.n2.Lanes())
			}
			if on && sk.p2.Lanes() == 1 {
				t.Log("no lane kernel on this CPU: refills hold one randomizer")
			}
			f(t, sk)
		})
	}
}

// inSubgroup reports whether rn is an N-th residue mod N²: those form the
// subgroup of order φ(N), and rn^λ = 1 mod N² holds exactly on it.
func inSubgroup(sk *PrivateKey, rn *big.Int) bool {
	return new(big.Int).Exp(rn, sk.Lambda, sk.NSquared).Cmp(mathx.One) == 0
}

// TestEncryptCRTRoundTripLanes: over three full batches' worth of draws,
// every EncryptCRT decrypts to its message and every fresh randomizer is an
// N-th residue.
func TestEncryptCRTRoundTripLanes(t *testing.T) {
	laneModes(t, func(t *testing.T, sk *PrivateKey) {
		for i := 0; i < 3*sk.p2.Lanes()+1; i++ {
			m := big.NewInt(int64(i) * 1_000_003)
			ct, err := sk.EncryptCRT(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(m) != 0 {
				t.Fatalf("Decrypt(EncryptCRT(%v)) = %v", m, got)
			}
			rn, err := sk.FreshRandomizerCRT()
			if err != nil {
				t.Fatal(err)
			}
			if !inSubgroup(sk, rn) {
				t.Fatalf("FreshRandomizerCRT returned %v, not an N-th residue", rn)
			}
		}
	})
}

// TestRefillRandomizersDistinct: a full refill holds p².Lanes() randomizers,
// pairwise distinct and all N-th residues, and FreshRandomizerCRT hands them
// out without touching the ones it returned.
func TestRefillRandomizersDistinct(t *testing.T) {
	laneModes(t, func(t *testing.T, sk *PrivateKey) {
		b, err := sk.refillRandomizers(sk.p2.Lanes())
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != sk.p2.Lanes() {
			t.Fatalf("a refill holds %d randomizers, want %d", len(b), sk.p2.Lanes())
		}
		seen := map[string]bool{}
		for _, rn := range b {
			if !inSubgroup(sk, rn) {
				t.Fatalf("refill randomizer %v is not an N-th residue", rn)
			}
			if seen[rn.String()] {
				t.Fatal("a refill holds the same randomizer twice")
			}
			seen[rn.String()] = true
		}
	})
}

// TestOwnerPoolRefillLanes: the owner's randomizers, drawn through the
// batched refills, encrypt correctly, and none is handed out twice.
func TestOwnerPoolRefillLanes(t *testing.T) {
	laneModes(t, func(t *testing.T, sk *PrivateKey) {
		seen := map[string]bool{}
		for i := 0; i < 20; i++ {
			rn, err := sk.FreshRandomizerCRT()
			if err != nil {
				t.Fatal(err)
			}
			if seen[rn.String()] {
				t.Fatal("the owner's refills hand out the same randomizer twice")
			}
			seen[rn.String()] = true
			ct := sk.assembleCiphertext(big.NewInt(int64(i)), rn)
			if m, err := sk.Decrypt(ct); err != nil || m.Int64() != int64(i) {
				t.Fatalf("encryption of %d decrypts to %v, %v", i, m, err)
			}
		}
	})
}

// TestFreshRandomizerCRTConcurrentDistinct: goroutines drawing at once from
// one key's batch never receive the same randomizer (run it under -race: the
// batch is popped under its lock and refilled outside it).
func TestFreshRandomizerCRTConcurrentDistinct(t *testing.T) {
	laneModes(t, func(t *testing.T, sk *PrivateKey) {
		const workers, draws = 4, 24
		var (
			mu   sync.Mutex
			seen = map[string]bool{}
			wg   sync.WaitGroup
		)
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < draws; i++ {
					rn, err := sk.FreshRandomizerCRT()
					if err != nil {
						errs <- err
						return
					}
					mu.Lock()
					dup := seen[rn.String()]
					seen[rn.String()] = true
					mu.Unlock()
					if dup {
						t.Error("two draws returned the same randomizer")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if len(seen) != workers*draws {
			t.Fatalf("%d distinct randomizers from %d draws", len(seen), workers*draws)
		}
	})
}

// TestFoldLanesAndFallback: a two-column streaming fold of a 512-bit key,
// whose N² takes the twenty-limb lanes where the CPU has them, returns
// Π ct_i^{k_i} mod N² by big.Int.Exp with the kernels on and forced off.
func TestFoldLanesAndFallback(t *testing.T) {
	const rows = 300
	pk := testKey(t, 512).Public()
	width := pk.CiphertextSize()
	var body []byte
	cols := [][]uint64{make([]uint64, rows), make([]uint64, rows)}
	want := []*big.Int{big.NewInt(1), big.NewInt(1)}
	for i := range rows {
		ct, err := pk.Encrypt(big.NewInt(int64(i % 7)))
		if err != nil {
			t.Fatal(err)
		}
		body = ct.AppendBytes(body)
		cols[0][i], cols[1][i] = uint64(i*i)*2654435761%(1<<32), uint64(i%5)
		for c, col := range cols {
			p := new(big.Int).Exp(ct.Value(), new(big.Int).SetUint64(col[i]), pk.NSquared)
			want[c].Mul(want[c], p).Mod(want[c], pk.NSquared)
		}
	}
	laneModes(t, func(t *testing.T, sk *PrivateKey) {
		f := sk.Public().NewFold(rows, len(cols))
		for lo := 0; lo < rows; lo += 100 {
			if _, err := f.AddChunk(body[lo*width:(lo+100)*width], columnScalars(cols, lo, lo+100), 2); err != nil {
				t.Fatal(err)
			}
		}
		for c, got := range f.Sums(2) {
			if got.Value().Cmp(want[c]) != 0 {
				t.Errorf("column %d: the fold is not Π ct^k mod N²", c)
			}
		}
	})
}
