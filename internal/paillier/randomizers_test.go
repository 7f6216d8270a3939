package paillier

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	"slices"
	"sync"
	"testing"

	"privstats/internal/homomorphic"
)

// forgetModuli empties the process-wide modulus table, so that the next key
// of any N builds its entry afresh: under mathx.ForceFallback, or to count
// what a cold table does. Keys already built keep their entries.
func forgetModuli() {
	moduli.mu.Lock()
	defer moduli.mu.Unlock()
	moduli.byN = make(map[string]*modulus)
}

// tableLen returns how many moduli the table holds.
func tableLen() int {
	moduli.mu.Lock()
	defer moduli.mu.Unlock()
	return len(moduli.byN)
}

// TestRerandomizeOnceAcrossSessions: keys parsed from the same bytes, as
// every session parses its hello, share one batch of r^N, and goroutines
// sealing at once through different parses never get the same r^N. The
// sealed ciphertext is 1 = E(0; 1), so each seal is its r^N itself; every one
// must decrypt to 0.
func TestRerandomizeOnceAcrossSessions(t *testing.T) {
	sk := testKey(t, 512)
	raw, err := sk.Public().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const parses, workers, calls = 4, 8, 200
	keys := make([]*PublicKey, parses)
	for i := range keys {
		pk, err := homomorphic.ParsePublicKey(SchemeID, raw)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = pk.(Scheme).PK
	}
	if keys[0].batch == nil || keys[0].batch != keys[parses-1].batch {
		t.Fatal("parses of one key do not share the modulus table's batch")
	}
	one := &Ciphertext{c: big.NewInt(1), byteLen: sk.byteLen}

	var (
		mu   sync.Mutex
		seen = make(map[string]bool, workers*calls)
		wg   sync.WaitGroup
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(pk *PublicKey) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ct, err := pk.Rerandomize(one)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				dup := seen[string(ct.c.Bytes())]
				seen[string(ct.c.Bytes())] = true
				mu.Unlock()
				if dup {
					t.Error("two seals used the same r^N")
					return
				}
				if m, err := sk.Decrypt(ct); err != nil || m.Sign() != 0 {
					t.Errorf("a seal of E(0; 1) decrypts to %v, %v", m, err)
					return
				}
			}
		}(keys[w%parses])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != workers*calls {
		t.Fatalf("%d distinct seals from %d calls", len(seen), workers*calls)
	}
}

// TestModulusTableBounded: parsing four times as many distinct keys as the
// table holds never grows it past its capacity, and a key whose entry was
// evicted still encrypts, rerandomizes and decrypts exactly, as does a fresh
// parse of it.
func TestModulusTableBounded(t *testing.T) {
	forgetModuli()
	defer forgetModuli()
	first, err := KeyGen(rand.Reader, MinModulusBits)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*moduliCap; i++ {
		sk, err := KeyGen(rand.Reader, MinModulusBits)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := sk.Public().MarshalBinary()
		var pk PublicKey
		if err := pk.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if n := tableLen(); n > moduliCap {
			t.Fatalf("after %d keys the table holds %d moduli, capacity %d", i+2, n, moduliCap)
		}
	}
	raw, _ := first.Public().MarshalBinary()
	var reparsed PublicKey
	if err := reparsed.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	for _, pk := range []*PublicKey{first.Public(), &reparsed} {
		for i := int64(0); i < 20; i++ {
			ct, err := pk.Encrypt(big.NewInt(i))
			if err != nil {
				t.Fatal(err)
			}
			if ct, err = pk.Rerandomize(ct); err != nil {
				t.Fatal(err)
			}
			if m, err := first.Decrypt(ct); err != nil || m.Int64() != i {
				t.Fatalf("evicted key: E(%d) rerandomized decrypts to %v, %v", i, m, err)
			}
		}
	}
}

// toyKey is a key with p = 11 and q = 13, small enough that a test can draw
// every residue.
func toyKey(t *testing.T) *PrivateKey {
	t.Helper()
	sk, err := newPrivateKey(big.NewInt(11), big.NewInt(13))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestSampleNoncesCoverResidues: on a toy key the owner's refill draws zp
// over exactly [1, p) and zq over exactly [1, q), every residue of both,
// about equally often (a chi-square statistic a uniform draw exceeds about
// once in 10^5 runs).
func TestSampleNoncesCoverResidues(t *testing.T) {
	sk := toyKey(t)
	const rounds, width = 250, 8
	zp, zq := make([]*big.Int, width), make([]*big.Int, width)
	for i := range zp {
		zp[i], zq[i] = new(big.Int), new(big.Int)
	}
	counts := map[*big.Int][]int{sk.P: make([]int, 11), sk.Q: make([]int, 13)}
	for r := 0; r < rounds; r++ {
		if err := sk.sampleNonces(rand.Reader, zp, zq); err != nil {
			t.Fatal(err)
		}
		for i := range zp {
			counts[sk.P][zp[i].Int64()]++
			counts[sk.Q][zq[i].Int64()]++
		}
	}
	for m, c := range counts {
		if c[0] != 0 {
			t.Errorf("mod %v: 0 drawn %d times", m, c[0])
		}
		want := float64(rounds*width) / float64(len(c)-1)
		chi2 := 0.0
		for v, n := range c[1:] {
			if n == 0 {
				t.Errorf("mod %v: %d never drawn in %d draws", m, v+1, rounds*width)
			}
			chi2 += (float64(n) - want) * (float64(n) - want) / want
		}
		if chi2 > 45 {
			t.Errorf("mod %v: chi-square %.1f over %d residues: %v", m, chi2, len(c)-1, c[1:])
		}
	}
}

// readCounter counts the reads of its reader.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(b []byte) (int, error) {
	c.reads++
	return c.r.Read(b)
}

// TestSampleUnitsRedraws: every first candidate of a refill comes from one
// read, and a candidate at or above the bound, zero, or (mod a composite)
// not a unit is turned away for the next bytes of the reader, which only
// then is read again. The toy key's candidates are one byte, masked to four
// bits: 0xff is 15 ≥ 11, 0x10 is 0.
func TestSampleUnitsRedraws(t *testing.T) {
	sk := toyKey(t)
	one := func() []*big.Int { return []*big.Int{new(big.Int)} }

	rd := &readCounter{r: bytes.NewReader(bytes.Repeat([]byte{0x23}, 16))}
	zp, zq := make([]*big.Int, 8), make([]*big.Int, 8)
	for i := range zp {
		zp[i], zq[i] = new(big.Int), new(big.Int)
	}
	if err := sk.sampleNonces(rd, zp, zq); err != nil {
		t.Fatal(err)
	}
	if rd.reads != 1 || zp[7].Int64() != 3 || zq[7].Int64() != 3 {
		t.Errorf("sixteen accepted candidates: %d reads, zp = %v, zq = %v; want 1 read of 3s", rd.reads, zp[7], zq[7])
	}

	rd = &readCounter{r: bytes.NewReader([]byte{0xff, 0x05, 0x10, 0x07})}
	zp, zq = one(), one()
	if err := sk.sampleNonces(rd, zp, zq); err != nil {
		t.Fatal(err)
	}
	if zp[0].Int64() != 5 || zq[0].Int64() != 7 || rd.reads != 3 {
		t.Errorf("after an out-of-range zp and a zero zq: zp = %v, zq = %v in %d reads; want 5 and 7 in 3", zp[0], zq[0], rd.reads)
	}

	z := one()
	if err := sampleUnits(bytes.NewReader([]byte{0x03, 0x04}), unitDraw{z: z, m: big.NewInt(15)}); err != nil {
		t.Fatal(err)
	}
	if z[0].Int64() != 4 {
		t.Errorf("mod 15 from candidates 3, 4: %v, want 4 (3 is not a unit)", z[0])
	}

	if err := sk.sampleNonces(bytes.NewReader([]byte{0xff}), one(), one()); err == nil {
		t.Error("a reader that runs dry: no error")
	}
	if err := sampleUnits(rand.Reader, unitDraw{z: one(), m: big.NewInt(1)}); err == nil {
		t.Error("units of Z*_1: no error")
	}
}

// TestPublicBatchLanes: the public route's batch is as wide as N²'s Lanes(),
// and a full refill holds that many r^N, pairwise distinct N-th residues,
// with the kernels on and forced off; on the lanes a 512-bit key's N² takes
// eight at a time.
func TestPublicBatchLanes(t *testing.T) {
	laneModes(t, func(t *testing.T, sk *PrivateKey) {
		if sk.batch.width != sk.n2.Lanes() {
			t.Fatalf("the public batch is %d wide, N².Lanes() = %d", sk.batch.width, sk.n2.Lanes())
		}
		rns, err := sk.batch.refill(sk.batch.width)
		if err != nil {
			t.Fatal(err)
		}
		if len(rns) != sk.n2.Lanes() {
			t.Fatalf("a public refill holds %d randomizers, want %d", len(rns), sk.n2.Lanes())
		}
		seen := map[string]bool{}
		for _, rn := range rns {
			if !inSubgroup(sk, rn) {
				t.Fatalf("public refill randomizer %v is not an N-th residue", rn)
			}
			if seen[rn.String()] {
				t.Fatal("a public refill holds the same randomizer twice")
			}
			seen[rn.String()] = true
		}
		for i := int64(0); i < int64(2*sk.n2.Lanes()+1); i++ {
			ct, err := sk.Encrypt(big.NewInt(i))
			if err != nil {
				t.Fatal(err)
			}
			if ct, err = sk.Rerandomize(ct); err != nil {
				t.Fatal(err)
			}
			if m, err := sk.Decrypt(ct); err != nil || m.Int64() != i {
				t.Fatalf("E(%d) rerandomized decrypts to %v, %v", i, m, err)
			}
		}
	})
}

// TestRefillSizeFollowsDemand: a batch's refills raise as many randomizers
// as it has handed out, at least one and at most its width, and it hands out
// each one once.
func TestRefillSizeFollowsDemand(t *testing.T) {
	var (
		sizes []int
		made  int64
	)
	rs := randomizers{width: 8, refill: func(count int) ([]*big.Int, error) {
		sizes = append(sizes, count)
		out := make([]*big.Int, count)
		for i := range out {
			made++
			out[i] = big.NewInt(made)
		}
		return out, nil
	}}
	seen := map[int64]bool{}
	for i := 0; i < 24; i++ {
		rn, err := rs.next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[rn.Int64()] {
			t.Fatalf("draw %d returned %v twice", i+1, rn)
		}
		seen[rn.Int64()] = true
	}
	if want := []int{1, 1, 2, 4, 8, 8}; !slices.Equal(sizes, want) {
		t.Fatalf("refill sizes over 24 draws = %v, want %v", sizes, want)
	}
}

// TestNewModulusSealsOnce: the first seal under a modulus the table has not
// seen raises one r^N and leaves none unused, so a session that brings a new
// key and seals once costs one exponentiation, not a lane group.
func TestNewModulusSealsOnce(t *testing.T) {
	sk, err := KeyGen(rand.Reader, 512) // a modulus no other test draws from
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := sk.Public().MarshalBinary()
	forgetModuli()
	var pk PublicKey
	if err := pk.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	ct, err := pk.Rerandomize(&Ciphertext{c: big.NewInt(1), byteLen: pk.byteLen})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.Decrypt(ct); err != nil || m.Sign() != 0 {
		t.Fatalf("a seal of E(0; 1) decrypts to %v, %v", m, err)
	}
	pk.batch.mu.Lock()
	left := len(pk.batch.batch)
	pk.batch.mu.Unlock()
	if left != 0 {
		t.Fatalf("the first seal under a new modulus left %d r^N unused, want 0", left)
	}
}

// BenchmarkSeal times one seal (Rerandomize) under a 512-bit key parsed from
// its bytes, as a session parses its hello. "repeated" parses one key every
// time, so its table entry stays warm. "fresh" cycles through moduliCap+1
// keys, so every parse misses the table (the key's entry was dropped since
// its last parse) and the seal is the new entry's first draw: a deployment
// that sees a new key per session.
func BenchmarkSeal(b *testing.B) {
	keys := make([][]byte, moduliCap+1)
	for i := range keys {
		sk, err := KeyGen(rand.Reader, 512)
		if err != nil {
			b.Fatal(err)
		}
		if keys[i], err = sk.Public().MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		keys [][]byte
	}{{"repeated", keys[:1]}, {"fresh", keys}} {
		b.Run(c.name, func(b *testing.B) {
			forgetModuli()
			for i := 0; i < b.N; i++ {
				var pk PublicKey
				if err := pk.UnmarshalBinary(c.keys[i%len(c.keys)]); err != nil {
					b.Fatal(err)
				}
				if _, err := pk.Rerandomize(&Ciphertext{c: big.NewInt(1), byteLen: pk.byteLen}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
