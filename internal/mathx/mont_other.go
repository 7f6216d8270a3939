//go:build !amd64

package mathx

import "math/big"

// The register kernels exist on amd64 only (mont8_amd64.s, mont16_amd64.s,
// mont32_amd64.s), and so do the lane kernels (lanes10_amd64.s,
// lanes20_amd64.s, lanes40_amd64.s, lanegather_amd64.s); elsewhere the chain kernel is the
// addMulVVW montMul, Exp is big.Int.Exp, ExpEach is Exp per element and the
// bucket fold is montMul's.
const (
	hasADX  = false
	hasIFMA = false
)

func kernelWidth(n int) int { return 0 }

func (r *Reducer) kmul(z, x, y *big.Word) { panic("mathx: no register kernel") }

func laneMul10(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64) {
	panic("mathx: no lane kernel")
}

func laneMul20(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64) {
	panic("mathx: no lane kernel")
}

func laneMul40(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64) {
	panic("mathx: no lane kernel")
}

func laneGather(z *laneRow, base *uint64, offs *[laneCount]int64, lanes, limbs int) {
	panic("mathx: no lane kernel")
}

func laneScatter(base *uint64, offs *[laneCount]int64, x *laneRow, lanes, limbs int) {
	panic("mathx: no lane kernel")
}

func laneLoad(z *laneRow, rows *[laneCount]*uint64, limbs int) {
	panic("mathx: no lane kernel")
}
