// Package spfe generalizes the selected-sum protocol along the axes the
// paper sketches: selective private function evaluation (Canetti et al.,
// the paper's reference [5]) with integer weights instead of 0/1 indices
// ("integer weights in some larger range could be used to produce a
// weighted sum, which in turn could be used for a weighted average"),
// polynomial aggregates over the selection, and the multiple-distributed-
// databases extension ("this protocol … can easily be extended to work for
// multiple distributed databases").
//
// All variants keep the trust model of the base protocol: the server(s)
// see only semantically secure ciphertexts; the client learns only the
// final aggregate.
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

// ErrWeightRange is returned when a weight falls outside the allowed range.
var ErrWeightRange = errors.New("spfe: weight outside plaintext space")

// Weights is the client's private weight vector w_1..w_n; entry i
// contributes w_i·x_i to the sum. A 0/1 vector degenerates to the selected
// sum.
type Weights struct {
	w []*big.Int
}

// NewWeights validates and wraps a weight vector. Weights must be
// non-negative; they are reduced nowhere — the caller's cryptosystem must
// be able to represent Σ w_i·x_i without wrapping for the result to be
// meaningful over the integers.
func NewWeights(w []*big.Int) (*Weights, error) {
	for i, v := range w {
		if v == nil || v.Sign() < 0 {
			return nil, fmt.Errorf("spfe: weight %d is nil or negative", i)
		}
	}
	return &Weights{w: w}, nil
}

// UniformFromSelection converts a 0/1 selection to a weight vector.
func UniformFromSelection(sel *database.Selection) *Weights {
	w := make([]*big.Int, sel.Len())
	for i := range w {
		w[i] = big.NewInt(int64(sel.Bit(i)))
	}
	return &Weights{w: w}
}

// Len returns the vector length.
func (w *Weights) Len() int { return len(w.w) }

// At returns weight i.
func (w *Weights) At(i int) *big.Int { return w.w[i] }

// Total returns Σ w_i — the weighted-average denominator, known to the
// client.
func (w *Weights) Total() *big.Int {
	t := new(big.Int)
	for _, v := range w.w {
		t.Add(t, v)
	}
	return t
}

// encryptWeights produces the concatenated fixed-width encryptions of the
// weight vector for positions [lo, hi).
func encryptWeights(pk homomorphic.PublicKey, w *Weights, lo, hi, width int) ([]byte, error) {
	if lo < 0 || hi < lo || hi > w.Len() {
		return nil, fmt.Errorf("spfe: bad range [%d,%d) over %d", lo, hi, w.Len())
	}
	space := pk.PlaintextSpace()
	out := make([]byte, 0, (hi-lo)*width)
	for i := lo; i < hi; i++ {
		v := w.w[i]
		if v.Cmp(space) >= 0 {
			return nil, fmt.Errorf("%w: weight %d has %d bits", ErrWeightRange, i, v.BitLen())
		}
		ct, err := pk.Encrypt(v)
		if err != nil {
			return nil, fmt.Errorf("spfe: encrypting weight %d: %w", i, err)
		}
		out = append(out, ct.Bytes()...)
	}
	return out, nil
}

// Source adapts a weight vector to the transport client's
// selectedsum.VectorSource, so weighted queries run over real connections:
//
//	sums, err := selectedsum.QueryVector(conn, sk, spfe.Source{PK: pk, W: w}, 100, 0)
type Source struct {
	PK homomorphic.PublicKey
	W  *Weights
}

// Len implements selectedsum.VectorSource.
func (s Source) Len() int { return s.W.Len() }

// EncryptAt implements selectedsum.VectorSource. It only reads the weights,
// so concurrent calls are safe.
func (s Source) EncryptAt(i int) (homomorphic.Ciphertext, error) {
	v := s.W.At(i)
	if v.Cmp(s.PK.PlaintextSpace()) >= 0 {
		return nil, fmt.Errorf("%w: weight %d has %d bits", ErrWeightRange, i, v.BitLen())
	}
	return s.PK.Encrypt(v)
}

// WeightedSum privately computes Σ w_i·x_i over the column: the client
// sends E(w_i), the server folds Π E(w_i)^{x_i}. chunkSize batches the
// stream (0 = one chunk).
func WeightedSum(sk homomorphic.PrivateKey, col database.Column, w *Weights, chunkSize int) (*big.Int, error) {
	if sk == nil {
		return nil, errors.New("spfe: nil private key")
	}
	if w.Len() != col.Len() {
		return nil, fmt.Errorf("spfe: %d weights for %d rows", w.Len(), col.Len())
	}
	pk := sk.PublicKey()
	n := col.Len()
	if chunkSize <= 0 || chunkSize > n {
		chunkSize = n
	}
	session, err := selectedsum.NewShardSession(pk, col, uint64(n), 0)
	if err != nil {
		return nil, err
	}
	width := pk.CiphertextSize()
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		body, err := encryptWeights(pk, w, lo, hi, width)
		if err != nil {
			return nil, err
		}
		chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
		decoded, err := wire.DecodeIndexChunk(chunk.Encode(), width)
		if err != nil {
			return nil, err
		}
		if err := session.Absorb(decoded); err != nil {
			return nil, err
		}
	}
	ct, err := session.Finalize(nil)
	if err != nil {
		return nil, err
	}
	sum, err := sk.Decrypt(ct)
	if err != nil {
		return nil, fmt.Errorf("spfe: decrypting weighted sum: %w", err)
	}
	return sum, nil
}

// WeightedAverage privately computes (Σ w_i·x_i) / (Σ w_i) as an exact
// rational. The denominator is the client's own weight total; no extra
// protocol round is needed.
func WeightedAverage(sk homomorphic.PrivateKey, col database.Column, w *Weights, chunkSize int) (*big.Rat, error) {
	total := w.Total()
	if total.Sign() == 0 {
		return nil, errors.New("spfe: weight vector sums to zero")
	}
	sum, err := WeightedSum(sk, col, w, chunkSize)
	if err != nil {
		return nil, err
	}
	return new(big.Rat).SetFrac(sum, total), nil
}
