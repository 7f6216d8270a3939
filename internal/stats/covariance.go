package stats

import (
	"fmt"
	"math/big"
	"time"

	"privstats/internal/database"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// Private covariance over paired columns. The server holds two aligned
// columns X and Y (say, age and blood pressure per patient). The client
// privately selects a cohort and learns
//
//	cov(X, Y) = (m·Σxy − Σx·Σy) / m²
//
// over it. Three sums — Σx, Σy, Σxy — come from folding the SAME encrypted
// index vector against the X column, the Y column, and their element-wise
// product column, so the query costs one uplink and three response
// ciphertexts.

// PairedMoments holds the joint first moments of a selection over (X, Y).
type PairedMoments struct {
	// Count is m, the number of selected rows.
	Count int
	// SumX, SumY, SumXY are the selected Σx, Σy, Σx·y.
	SumX, SumY, SumXY *big.Int
	// Covariance is the exact population covariance.
	Covariance *big.Rat
}

// CovarianceQuery privately computes the joint moments of the selection
// over the paired tables. Both tables must have the selection's length.
func (a *Analyst) CovarianceQuery(x, y *database.Table, sel *database.Selection) (*PairedMoments, Cost, error) {
	if sel.Count() == 0 {
		return nil, Cost{}, ErrEmptySelection
	}
	if x.Len() != y.Len() {
		return nil, Cost{}, fmt.Errorf("stats: paired tables have %d and %d rows", x.Len(), y.Len())
	}
	if sel.Len() != x.Len() {
		return nil, Cost{}, fmt.Errorf("stats: selection length %d != table length %d", sel.Len(), x.Len())
	}
	pk := a.sk.PublicKey()
	n := x.Len()

	// Σxy over 32-bit pairs needs room for n·2⁶⁴, like Σx².
	bound := new(big.Int).Lsh(big.NewInt(int64(n)), 64)
	if bound.Cmp(pk.PlaintextSpace()) >= 0 {
		return nil, Cost{}, fmt.Errorf("stats: plaintext space too small for Σxy over %d rows", n)
	}

	prod, err := database.ProductColumn(x, y)
	if err != nil {
		return nil, Cost{}, err
	}
	sessions := make([]*selectedsum.ServerSession, 3)
	for i, col := range []database.Column{x.Column(), y.Column(), prod} {
		s, err := selectedsum.NewShardSession(pk, col, uint64(n), 0)
		if err != nil {
			return nil, Cost{}, err
		}
		sessions[i] = s
	}

	var enc selectedsum.BitEncryptor = selectedsum.Online{PK: pk}
	if a.pool != nil {
		enc = selectedsum.Pooled{Pool: a.pool}
	}
	chunkSize := a.chunkSize
	if chunkSize <= 0 || chunkSize > n {
		chunkSize = n
	}
	width := pk.CiphertextSize()

	start := time.Now()
	var bytesUp int64
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		body, err := selectedsum.EncryptRange(enc, sel, lo, hi, width)
		if err != nil {
			return nil, Cost{}, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		payload := chunk.Encode()
		bytesUp += int64(wire.FrameOverhead + len(payload))
		decoded, err := wire.DecodeIndexChunk(payload, width)
		if err != nil {
			return nil, Cost{}, err
		}
		for _, s := range sessions {
			if err := s.Absorb(decoded); err != nil {
				return nil, Cost{}, err
			}
		}
	}

	sums := make([]*big.Int, 3)
	for i, s := range sessions {
		ct, err := s.Finalize(nil)
		if err != nil {
			return nil, Cost{}, err
		}
		v, err := a.sk.Decrypt(ct)
		if err != nil {
			return nil, Cost{}, fmt.Errorf("stats: decrypting paired sum %d: %w", i, err)
		}
		sums[i] = v
	}
	elapsed := time.Since(start)

	m := big.NewInt(int64(sel.Count()))
	// cov = (m·Σxy − Σx·Σy) / m²
	num := new(big.Int).Mul(m, sums[2])
	num.Sub(num, new(big.Int).Mul(sums[0], sums[1]))
	cov := new(big.Rat).SetFrac(num, new(big.Int).Mul(m, m))

	bytesDown := int64(3 * (wire.FrameOverhead + width))
	cost := Cost{
		Online:    elapsed + a.link.OneWayTime(bytesUp) + a.link.OneWayTime(bytesDown),
		BytesUp:   bytesUp,
		BytesDown: bytesDown,
	}
	return &PairedMoments{
		Count:      sel.Count(),
		SumX:       sums[0],
		SumY:       sums[1],
		SumXY:      sums[2],
		Covariance: cov,
	}, cost, nil
}
