//go:build !amd64

package mathx

import "math/big"

// The register-resident kernel of Exp exists on amd64 only (mont8_amd64.s);
// elsewhere Exp always takes big.Int.Exp.
const hasMont8 = false

func (r *Reducer) exp8(z, x, e *big.Int) *big.Int { return nil }
