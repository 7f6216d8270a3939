//go:build !amd64

package mathx

import "math/big"

// The register kernels exist on amd64 only (mont8_amd64.s, mont16_amd64.s,
// mont32_amd64.s), and so does the lane kernel (lanes_amd64.s); elsewhere the
// chain kernel is the addMulVVW montMul, Exp is big.Int.Exp and ExpEach is
// Exp per element.
const (
	hasADX  = false
	hasIFMA = false
)

func kernelWidth(n int) int { return 0 }

func (r *Reducer) kmul(z, x, y *big.Word) { panic("mathx: no register kernel") }

func laneMul(z, x, y *laneNum, m *[laneLimbs]uint64, k0 uint64) {
	panic("mathx: no lane kernel")
}
