package mathx

import "math/big"

//go:generate go run gen_mont.go -words 8 -out mont8_amd64.s
//go:generate go run gen_mont.go -words 16 -out mont16_amd64.s
//go:generate go run gen_mont.go -words 32 -out mont32_amd64.s

// hasADX reports whether the CPU has MULX (BMI2) and ADCX/ADOX (ADX), the
// instructions the register kernels are written in: CPUID leaf 7, EBX bits 8
// and 19.
var hasADX = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// montMul8, montMul16 and montMul32 set z = x·y·R⁻¹ mod m for an odd m of
// 8, 16 or 32 words, R = b^words, and k0 = −m⁻¹ mod b, as Reducer.montMul
// does and with the same result bit for bit: x and y anywhere in [0, R), the
// result in [0, R), m subtracted once exactly when the sum carries past R.
// Each pointer addresses words consecutive words; z may alias x or y. They
// need hasADX.
//
//go:noescape
func montMul8(z, x, y, m *big.Word, k0 big.Word)

//go:noescape
func montMul16(z, x, y, m *big.Word, k0 big.Word)

//go:noescape
func montMul32(z, x, y, m *big.Word, k0 big.Word)

// kernelWidth returns n where a register kernel multiplies mod an odd n-word
// modulus on this CPU, else 0: other widths, a CPU without BMI2 and ADX, or
// noKernel set.
func kernelWidth(n int) int {
	if hasADX && !noKernel && (n == 8 || n == 16 || n == 32) {
		return n
	}
	return 0
}

// kmul is montMul on the register kernel: x, y and z address n words each.
func (r *Reducer) kmul(z, x, y *big.Word) {
	switch r.kw {
	case 8:
		montMul8(z, x, y, &r.mw[0], r.k0)
	case 16:
		montMul16(z, x, y, &r.mw[0], r.k0)
	default:
		montMul32(z, x, y, &r.mw[0], r.k0)
	}
}
