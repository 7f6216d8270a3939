package mathx

import (
	"math/big"
	"math/bits"
)

//go:generate go run gen_mont8.go -out mont8_amd64.s

// hasMont8 reports whether the CPU has MULX (BMI2) and ADCX/ADOX (ADX), the
// instructions montMul8 is written in: CPUID leaf 7, EBX bits 8 and 19.
var hasMont8 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// montMul8 sets z = x·y·R⁻¹ mod m for an odd 8-word m, R = 2⁵¹², and
// k0 = −m⁻¹ mod 2⁶⁴. x must be below m; y may be any 8 words. The result is
// fully reduced, in [0, m). z may alias x or y. It needs hasMont8.
//
//go:noescape
func montMul8(z, x, y, m *[8]big.Word, k0 big.Word)

// exp8 is Exp on the register-resident kernel: a 4-bit fixed window over e,
// in Montgomery form throughout, with the table and accumulator on the
// stack. It returns nil, leaving z untouched, unless the CPU has the kernel,
// m is odd and exactly 8 words, and x and e are non-negative.
func (r *Reducer) exp8(z, x, e *big.Int) *big.Int {
	if !hasMont8 || r.n != 8 || r.mw == nil || x.Sign() < 0 || e.Sign() < 0 {
		return nil
	}
	m, k0 := (*[8]big.Word)(r.mw), r.k0
	if x.Cmp(r.m) >= 0 {
		x = new(big.Int).Mod(x, r.m)
	}
	var xw [8]big.Word
	copy(xw[:], x.Bits())

	// pow[d] is x^d in Montgomery form; pow[0] = R mod m is the form of 1.
	var pow [16][8]big.Word
	montMul8(&pow[0], (*[8]big.Word)(r.one), (*[8]big.Word)(r.rr), m, k0)
	montMul8(&pow[1], &xw, (*[8]big.Word)(r.rr), m, k0)
	for d := 2; d < len(pow); d += 2 {
		montMul8(&pow[d], &pow[d/2], &pow[d/2], m, k0)
		montMul8(&pow[d+1], &pow[d], &pow[1], m, k0)
	}

	// As math/big's expNNMontgomery: every digit, zero ones included, costs
	// four squarings and one table multiplication.
	acc := pow[0]
	ew := e.Bits()
	for i := len(ew) - 1; i >= 0; i-- {
		w := ew[i]
		for j := 0; j < bits.UintSize; j += 4 {
			if i != len(ew)-1 || j != 0 {
				montMul8(&acc, &acc, &acc, m, k0)
				montMul8(&acc, &acc, &acc, m, k0)
				montMul8(&acc, &acc, &acc, m, k0)
				montMul8(&acc, &acc, &acc, m, k0)
			}
			montMul8(&acc, &acc, &pow[w>>(bits.UintSize-4)], m, k0)
			w <<= 4
		}
	}
	montMul8(&acc, &acc, (*[8]big.Word)(r.one), m, k0)

	zw := z.Bits()
	if cap(zw) < 8 {
		zw = make([]big.Word, 8)
	}
	zw = zw[:8]
	copy(zw, acc[:])
	return z.SetBits(zw)
}
