package mathx

import (
	"fmt"
	"math/big"
	"math/bits"
)

// FixedBaseExp accelerates repeated exponentiations g^e mod m that share the
// same base g, using a precomputed radix-2^w table of g^(2^(w·i)).
//
// Paillier's random-r encryption raises a fresh base each time, so no scheme
// here builds these tables. They fit a randomizer drawn as one fixed
// generator raised to fresh exponents, such as the Damgård–Jurik–Nielsen
// short-exponent randomizer. For a 512-bit exponent and w = 6 the table
// replaces ~768 multiplications of square-and-multiply with ~86 table
// multiplications.
//
// An exponentiation is a chain of products, so it runs on the Reducer's chain
// kernel: the table holds Montgomery forms, Exp multiplies them with montMul
// and converts the product out once.
type FixedBaseExp struct {
	red     *Reducer
	window  uint
	maxBits int
	// table[i][d-1] is the Montgomery form of g^(d << (window*i)) mod m for
	// d in [1, 2^window).
	table [][][]big.Word
}

// NewFixedBaseExp precomputes powers of base modulo the odd modulus m for
// exponents of up to maxBits bits using the given window width (1..16; 6 is
// a good default for 512-1024 bit exponents).
func NewFixedBaseExp(base, m *big.Int, maxBits int, window uint) (*FixedBaseExp, error) {
	red, err := newOddReducer(m)
	if err != nil {
		return nil, err
	}
	if window < 1 || window > 16 {
		return nil, fmt.Errorf("mathx: fixed-base window must be in [1,16], got %d", window)
	}
	if maxBits < 1 {
		return nil, fmt.Errorf("mathx: fixed-base maxBits must be positive, got %d", maxBits)
	}
	digits := (maxBits + int(window) - 1) / int(window)
	entries := 1<<window - 1
	f := &FixedBaseExp{
		red:     red,
		window:  window,
		maxBits: maxBits,
		table:   make([][][]big.Word, digits),
	}
	n := red.n
	t := make([]big.Word, 2*n)
	// g_i = base^(2^(w·i)) in Montgomery form; row i holds g_i^d for all
	// non-zero digits d.
	gi := red.Limbs(nil, new(big.Int).Mod(base, m))
	red.montMul(gi, gi, red.rr, t)
	for i := 0; i < digits; i++ {
		slab := make([]big.Word, entries*n)
		row := make([][]big.Word, entries)
		row[0] = slab[:n]
		copy(row[0], gi)
		for d := 1; d < entries; d++ {
			row[d] = slab[d*n : (d+1)*n]
			red.montMul(row[d], row[d-1], gi, t)
		}
		f.table[i] = row
		// Advance g_{i+1} = g_i^(2^w).
		for k := uint(0); k < window; k++ {
			red.montMul(gi, gi, gi, t)
		}
	}
	return f, nil
}

// Exp returns base^e mod m using the precomputed table. e must be
// non-negative and at most the table's maxBits bits.
func (f *FixedBaseExp) Exp(e *big.Int) (*big.Int, error) {
	if e.Sign() < 0 {
		return nil, fmt.Errorf("mathx: fixed-base exponent must be non-negative")
	}
	if e.BitLen() > f.maxBits {
		return nil, fmt.Errorf("mathx: exponent has %d bits, table supports %d", e.BitLen(), f.maxBits)
	}
	n := f.red.n
	result, t := make([]big.Word, n), make([]big.Word, 2*n)
	have := false
	mask := uint64(1<<f.window - 1)
	// Walk the exponent window by window from the least significant end;
	// row i already encodes the 2^(w·i) shift, so the product of the
	// selected row entries is the full power.
	words := e.Bits()
	bitLen := e.BitLen()
	for i := 0; i*int(f.window) < bitLen; i++ {
		d := extractWindow(words, uint(i)*f.window, f.window, mask)
		if d == 0 {
			continue
		}
		if have {
			f.red.montMul(result, result, f.table[i][d-1], t)
		} else {
			copy(result, f.table[i][d-1])
			have = true
		}
	}
	if !have {
		return new(big.Int).Mod(One, f.red.m), nil
	}
	return f.red.montOut(result, t), nil
}

// extractWindow returns the w-bit digit starting at bit position pos of the
// exponent whose little-endian words are given. Reading one word (two when
// the digit straddles a word boundary) replaces the w sequential big.Int.Bit
// calls of the earlier implementation, which made Exp quadratic in the
// exponent bit length.
func extractWindow(words []big.Word, pos, w uint, mask uint64) uint64 {
	const wordBits = uint(bits.UintSize)
	i := pos / wordBits
	if i >= uint(len(words)) {
		return 0
	}
	off := pos % wordBits
	d := uint64(words[i] >> off)
	if off+w > wordBits && i+1 < uint(len(words)) {
		d |= uint64(words[i+1]) << (wordBits - off)
	}
	return d & mask
}
