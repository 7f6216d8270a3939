package mathx

import "math/big"

//go:generate go run gen_mont.go -words 8 -out mont8_amd64.s
//go:generate go run gen_mont.go -words 16 -out mont16_amd64.s
//go:generate go run gen_mont.go -words 32 -out mont32_amd64.s
//go:generate go run gen_lanes.go -limbs 10 -out lanes10_amd64.s
//go:generate go run gen_lanes.go -limbs 20 -out lanes20_amd64.s
//go:generate go run gen_lanes.go -limbs 40 -out lanes40_amd64.s

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

// hasIFMA reports whether the CPU has AVX512F and AVX512IFMA (CPUID leaf 7,
// EBX bits 16 and 21) and the OS saves the ZMM state across context switches
// (leaf 1 ECX bit 27, OSXSAVE, then XCR0 bits 1, 2, 5, 6 and 7 set): what the
// lane kernels, laneMul10, laneMul20 and laneMul40, run on.
var hasIFMA = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 || xgetbv0()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<21) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0; it needs OSXSAVE.
func xgetbv0() (eax uint32)

// laneMul10, laneMul20 and laneMul40 set each lane of z to the
// almost-Montgomery product x·y·R⁻¹ mod m of the same lanes of x and y, for
// an odd m held as L = 10, 20 or 40 radix-2^52 limbs (m < 2^512, 2^1024 or
// 2^2048; R = 2^(52·L)) and k0 = −m⁻¹ mod 2^52: with every limb of x and y
// below 2^52 and x, y < 2m, the result is below 2m and its limbs below 2^52.
// z, x and y address L consecutive laneRows each, a laneNum's first row; z
// may alias x or y. They need hasIFMA (lanes10_amd64.s, lanes20_amd64.s and
// lanes40_amd64.s, from gen_lanes.go).
//
//go:noescape
func laneMul10(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64)

//go:noescape
func laneMul20(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64)

//go:noescape
func laneMul40(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64)

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
	if hasADX && !noKernel.Load() && (n == 8 || n == 16 || n == 32) {
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

// laneGather sets row j of z, lane by lane for the first lanes lanes, to the
// uint64 at base + offs[l] bytes + 8·j, for j < limbs; laneScatter stores
// row j of x back there. Lanes past lanes are neither read nor written in
// memory. They need hasIFMA (lanegather_amd64.s).
//
//go:noescape
func laneGather(z *laneRow, base *uint64, offs *[laneCount]int64, lanes, limbs int)

//go:noescape
func laneScatter(base *uint64, offs *[laneCount]int64, x *laneRow, lanes, limbs int)

// laneLoad sets row j of z, lane by lane, to rows[l][j] for j < limbs: eight
// values from eight places in memory, one per lane. It needs hasIFMA
// (lanegather_amd64.s).
//
//go:noescape
func laneLoad(z *laneRow, rows *[laneCount]*uint64, limbs int)
