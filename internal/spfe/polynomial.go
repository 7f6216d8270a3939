package spfe

import (
	"errors"
	"fmt"
	"math/big"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// Polynomial aggregation: for public coefficients a_0..a_d, the client
// privately learns Σ_{i∈I} p(x_i) where p(x) = Σ_j a_j·x^j. The identity
//
//	Σ_{i∈I} p(x_i) = a_0·m + Σ_{j≥1} a_j · (Σ_{i∈I} x_i^j)
//
// reduces it to d selected sums against the server's power columns x^j,
// all folded from ONE encrypted index vector. Higher moments — skewness,
// kurtosis — of a selection come out of this directly.

// ErrPowerOverflow is returned when a power column would exceed uint64.
var ErrPowerOverflow = errors.New("spfe: value power overflows 64 bits")

// PowerColumn is column col raised element-wise to the j'th power,
// validated against uint64 overflow at construction.
type PowerColumn struct {
	pow []uint64
}

// NewPowerColumn builds the x^j column. j must be ≥ 1; every x^j must fit
// in 64 bits (e.g. j=2 needs x < 2³², j=3 needs x < 2²¹·⁳ ≈ 2.6M).
func NewPowerColumn(col database.Column, j int) (*PowerColumn, error) {
	if j < 1 {
		return nil, fmt.Errorf("spfe: power %d must be >= 1", j)
	}
	out := make([]uint64, col.Len())
	for i := range out {
		x := col.At(i)
		p := uint64(1)
		for e := 0; e < j; e++ {
			if x != 0 && p > (1<<64-1)/x {
				return nil, fmt.Errorf("%w: row %d value %d power %d", ErrPowerOverflow, i, x, j)
			}
			p *= x
		}
		out[i] = p
	}
	return &PowerColumn{pow: out}, nil
}

// Len implements database.Column.
func (p *PowerColumn) Len() int { return len(p.pow) }

// At implements database.Column.
func (p *PowerColumn) At(i int) uint64 { return p.pow[i] }

// PolynomialSum privately computes Σ_{i∈I} p(x_i) for the public
// polynomial with coefficients coeffs[j] = a_j (degree = len(coeffs)-1).
// Coefficients may be negative; the result is exact over the integers.
// The single encrypted index vector is folded against every power column.
func PolynomialSum(sk homomorphic.PrivateKey, col database.Column, sel *database.Selection, coeffs []*big.Int, chunkSize int) (*big.Int, error) {
	if sk == nil {
		return nil, errors.New("spfe: nil private key")
	}
	if len(coeffs) == 0 {
		return nil, errors.New("spfe: empty coefficient vector")
	}
	if sel.Len() != col.Len() {
		return nil, fmt.Errorf("spfe: selection %d vs column %d", sel.Len(), col.Len())
	}
	for j, c := range coeffs {
		if c == nil {
			return nil, fmt.Errorf("spfe: coefficient %d is nil", j)
		}
	}
	pk := sk.PublicKey()
	n := col.Len()
	if chunkSize <= 0 || chunkSize > n {
		chunkSize = n
	}

	// One session per power j ≥ 1 with non-zero coefficient.
	type fold struct {
		j       int
		session *selectedsum.ServerSession
	}
	var folds []fold
	for j := 1; j < len(coeffs); j++ {
		if coeffs[j].Sign() == 0 {
			continue
		}
		pc, err := NewPowerColumn(col, j)
		if err != nil {
			return nil, err
		}
		s, err := selectedsum.NewShardSession(pk, pc, uint64(n), 0)
		if err != nil {
			return nil, err
		}
		folds = append(folds, fold{j: j, session: s})
	}

	width := pk.CiphertextSize()
	enc := selectedsum.Online{PK: pk}
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		body, err := selectedsum.EncryptRange(enc, sel, lo, hi, width)
		if err != nil {
			return nil, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		decoded, err := wire.DecodeIndexChunk(chunk.Encode(), width)
		if err != nil {
			return nil, err
		}
		for _, f := range folds {
			if err := f.session.Absorb(decoded); err != nil {
				return nil, err
			}
		}
	}

	// total = a_0·m + Σ_j a_j·S_j with S_j decrypted per fold.
	total := new(big.Int).Mul(coeffs[0], big.NewInt(int64(sel.Count())))
	for _, f := range folds {
		ct, err := f.session.Finalize(nil)
		if err != nil {
			return nil, err
		}
		sj, err := sk.Decrypt(ct)
		if err != nil {
			return nil, fmt.Errorf("spfe: decrypting power-%d sum: %w", f.j, err)
		}
		total.Add(total, new(big.Int).Mul(coeffs[f.j], sj))
	}
	return total, nil
}
