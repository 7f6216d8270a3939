//go:build !amd64

package mathx

import "math/big"

// The register kernels exist on amd64 only (mont8_amd64.s, mont16_amd64.s,
// mont32_amd64.s); elsewhere the chain kernel is the addMulVVW montMul and
// Exp is big.Int.Exp.
const hasADX = false

func kernelWidth(n int) int { return 0 }

func (r *Reducer) kmul(z, x, y *big.Word) { panic("mathx: no register kernel") }
