package mathx

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// The two vector primitives of math/big's assembly that Montgomery
// multiplication is built from. math/big keeps them linkname-able and their
// signatures frozen (go.dev/issue/67401). They are absent under the
// math_big_pure_go build tag and on targets without the assembly: there this
// package fails to link, by design — there is no slower second kernel to fall
// back to unnoticed. arith_linkname.s is the empty assembly file a bodyless
// declaration needs; arith_linkname_test.go pins both against a math/bits
// reference, so a toolchain that changes them fails a test.

// addMulVVW sets z += x·y over len(z) words and returns the carry word;
// len(x) must be at least len(z).
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

// subVV sets z = x − y over len(z) words and returns the borrow; x and y
// must be at least as long as z.
//
//go:linkname subVV math/big.subVV
//go:noescape
func subVV(z, x, y []big.Word) (c big.Word)
