package mathx

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"privstats/internal/testutil"
)

// crtPrime returns the first prime at or above a seeded random value of
// exactly bits bits: the factors of a fixed test key.
func crtPrime(rng *rand.Rand, bits int) *big.Int {
	p := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bits)))
	p.SetBit(p, bits-1, 1).SetBit(p, 0, 1)
	for !p.ProbablyPrime(20) {
		p.Add(p, Two)
	}
	return p
}

// crtPair is a CRT's moduli, with the CRT built with the kernels on and with
// them off.
type crtPair struct {
	name string
	p, q *big.Int
	crt  [2]*CRT // [0] kernels on, [1] under noKernel
}

var (
	crtPairsOnce sync.Once
	crtPairs     []crtPair
)

// crtTestPairs returns the factors p, q of a 128-, a 512- and a 1024-bit key
// and their squares, each pair both ways round, p < q and p > q: the
// moduli of Decrypt's and of the owner's randomizer combines.
func crtTestPairs() []crtPair {
	crtPairsOnce.Do(func() {
		rng := rand.New(rand.NewSource(43))
		for _, bits := range []int{64, 256, 512} {
			a, b := crtPrime(rng, bits), crtPrime(rng, bits)
			if a.Cmp(b) > 0 {
				a, b = b, a
			}
			a2, b2 := new(big.Int).Mul(a, a), new(big.Int).Mul(b, b)
			for _, pq := range [][3]any{
				{"p<q", a, b}, {"p>q", b, a}, {"p²<q²", a2, b2}, {"p²>q²", b2, a2},
			} {
				crtPairs = append(crtPairs, newCRTPair(fmt.Sprintf("%d-bit key %s", 2*bits, pq[0]), pq[1].(*big.Int), pq[2].(*big.Int)))
			}
		}
		// p one below a word boundary, 2^512 − 1 and 2^1024 − 1 (the widest
		// moduli of the ten- and twenty-limb lanes), with q = p + 2 and
		// q = (p − 1)/2, both coprime to p: a lane product mod such a p
		// comes out at or above 2^(64·words of p) when it is h + p.
		for _, bits := range []uint{512, 1024} {
			p := new(big.Int).Sub(new(big.Int).Lsh(One, bits), One)
			crtPairs = append(crtPairs,
				newCRTPair(fmt.Sprintf("p = 2^%d − 1 < q", bits), p, new(big.Int).Add(p, Two)),
				newCRTPair(fmt.Sprintf("p = 2^%d − 1 > q", bits), p, new(big.Int).Rsh(p, 1)))
		}
	})
	return crtPairs
}

// newCRTPair builds p and q's CRT with the kernels on and with them off.
func newCRTPair(name string, p, q *big.Int) crtPair {
	c := crtPair{name: name, p: p, q: q}
	for i, on := range []bool{true, false} {
		noKernel.Store(!on)
		crt, err := NewCRT(c.p, c.q)
		noKernel.Store(false)
		if err != nil {
			panic(err)
		}
		c.crt[i] = crt
	}
	return c
}

// combineRef is Garner's formula on big.Int, reducing at every step: what
// Combine returned before it kept a Reducer.
func combineRef(p, q, ap, aq *big.Int) *big.Int {
	qInv := new(big.Int).ModInverse(q, p)
	h := new(big.Int).Sub(ap, aq)
	h.Mul(h, qInv)
	h.Mod(h, p)
	h.Mul(h, q)
	h.Add(h, aq)
	return h.Mod(h, new(big.Int).Mul(p, q))
}

// crtInputs returns count residue pairs for p and q from x and y: in range,
// at the edges (0, p − 1, q − 1), at and above the moduli, and negative,
// cycled with an offset. Of two or more, the last pair's answer is
// aq mod q + q·h with a small h, 1 + x mod 4: CombineEach's lane product
// is then h + p wherever p² is well above the lanes' R.
func crtInputs(p, q, x, y *big.Int, count int) (ap, aq []*big.Int) {
	special := func(m, v *big.Int) []*big.Int {
		return []*big.Int{
			new(big.Int).Mod(v, m), new(big.Int), new(big.Int).Sub(m, One), v,
			new(big.Int).Neg(v), new(big.Int).Set(m), new(big.Int).Add(m, v), new(big.Int).Lsh(m, 70),
		}
	}
	sp, sq := special(p, x), special(q, y)
	for i := 0; i < count; i++ {
		off := big.NewInt(int64(i / len(sp)))
		ap = append(ap, new(big.Int).Add(sp[i%len(sp)], off))
		aq = append(aq, new(big.Int).Add(sq[(i*3+1)%len(sq)], off))
	}
	if count > 1 {
		h := new(big.Int).Mod(x, big.NewInt(4))
		h.Add(h, One)
		last := new(big.Int).Mod(aq[count-1], q)
		last.Add(last, h.Mul(h, q))
		ap[count-1] = last.Mod(last, p)
	}
	return ap, aq
}

// FuzzCRTCombine: Combine and CombineEach return exactly what Garner's
// formula on big.Int returns, for any inputs, negative and oversized ones
// included, at the factors and squared factors of 128-, 512- and 1024-bit
// keys with p < q and p > q, in batches of one to eight, with the kernels
// forced off and, where the CPU has IFMA, on the lanes (checked, so that the
// lane half is not the fallback twice); CombineEach also with each z[i]
// being ap[i] and being aq[i].
func FuzzCRTCombine(f *testing.F) {
	for i := range crtTestPairs() {
		f.Add(uint8(i), []byte{0x5e, 0xed}, []byte{0xc0, 0xde}, uint8(8))
		f.Add(uint8(i), []byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1))
	}
	f.Add(uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, []byte{0x80}, uint8(5))
	f.Fuzz(func(t *testing.T, pair uint8, xRaw, yRaw []byte, count uint8) {
		if len(xRaw) > 300 || len(yRaw) > 300 {
			t.Skip()
		}
		pairs := crtTestPairs()
		c := pairs[int(pair)%len(pairs)]
		x, y := new(big.Int).SetBytes(xRaw), new(big.Int).SetBytes(yRaw)
		if pair&0x80 != 0 {
			x.Neg(x)
		}
		if pair&0x40 != 0 {
			y.Neg(y)
		}
		ap, aq := crtInputs(c.p, c.q, x, y, 1+int(count)%laneCount)
		want := make([]*big.Int, len(ap))
		for i := range ap {
			want[i] = combineRef(c.p, c.q, ap[i], aq[i])
		}
		for mode, crt := range c.crt {
			if onLanes := crt.rp.Lanes() == laneCount; onLanes != (mode == 0 && hasIFMA) {
				t.Fatalf("%s, kernels off = %v: on the lanes = %v", c.name, mode == 1, onLanes)
			}
			check := func(how string, got []*big.Int) {
				t.Helper()
				for i := range want {
					if got[i].Cmp(want[i]) != 0 {
						t.Fatalf("%s, kernels off = %v, %s: pair %d of %d, ap = %v, aq = %v: %v, want %v",
							c.name, mode == 1, how, i, len(want), ap[i], aq[i], got[i], want[i])
					}
				}
			}
			one := make([]*big.Int, len(ap))
			for i := range ap {
				one[i] = crt.Combine(ap[i], aq[i])
			}
			check("Combine", one)
			fresh := make([]*big.Int, len(ap))
			for i := range fresh {
				fresh[i] = new(big.Int)
			}
			crt.CombineEach(fresh, ap, aq)
			check("CombineEach", fresh)
			for _, alias := range []string{"ap", "aq"} {
				ap2, aq2 := copyInts(ap), copyInts(aq)
				z := ap2
				if alias == "aq" {
					z = aq2
				}
				crt.CombineEach(z, ap2, aq2)
				check("CombineEach into "+alias, z)
			}
		}
	})
}

func copyInts(xs []*big.Int) []*big.Int {
	out := make([]*big.Int, len(xs))
	for i, x := range xs {
		out[i] = new(big.Int).Set(x)
	}
	return out
}

// TestCombineEachDoesNotAllocate: once its outputs have grown to p·q, a
// batch of eight in-range pairs allocates nothing, on the lanes or off them.
func TestCombineEachDoesNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(8))
	for _, c := range crtTestPairs() {
		ap, aq, z := make([]*big.Int, laneCount), make([]*big.Int, laneCount), make([]*big.Int, laneCount)
		for i := range ap {
			ap[i], aq[i], z[i] = new(big.Int).Rand(rng, c.p), new(big.Int).Rand(rng, c.q), new(big.Int)
		}
		for mode, crt := range c.crt {
			crt.CombineEach(z, ap, aq)
			if got := testing.AllocsPerRun(20, func() { crt.CombineEach(z, ap, aq) }); got != 0 {
				t.Errorf("%s, kernels off = %v: CombineEach allocates %v times", c.name, mode == 1, got)
			}
		}
	}
}

// BenchmarkCRTCombine times Garner's step at the squared factors of a 512-
// and a 1024-bit key, the owner's randomizer combine: Combine per value, and
// CombineEach per batch of eight (on the lanes where the CPU has IFMA).
// Both report ns per value.
func BenchmarkCRTCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	for _, bits := range []int{256, 512} {
		p, q := crtPrime(rng, bits), crtPrime(rng, bits)
		p.Mul(p, p)
		q.Mul(q, q)
		crt, err := NewCRT(p, q)
		if err != nil {
			b.Fatal(err)
		}
		ap, aq, z := make([]*big.Int, laneCount), make([]*big.Int, laneCount), make([]*big.Int, laneCount)
		for i := range ap {
			ap[i], aq[i], z[i] = new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, q), new(big.Int)
		}
		b.Run(fmt.Sprintf("key=%d/value", 2*bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				crt.Combine(ap[i%laneCount], aq[i%laneCount])
			}
		})
		b.Run(fmt.Sprintf("key=%d/batch8", 2*bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				crt.CombineEach(z, ap, aq)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*laneCount), "ns/value")
		})
	}
}
