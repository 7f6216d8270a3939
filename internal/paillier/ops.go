package paillier

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"privstats/internal/mathx"
)

// This file implements the homomorphic operations the selected-sum protocol
// relies on (paper §2): ciphertext addition is multiplication mod N², and
// plaintext-scalar multiplication is exponentiation mod N².

// Add returns an encryption of a+b (mod N): E(a)·E(b) mod N².
func (pk *PublicKey) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := pk.checkCiphertext(a); err != nil {
		return nil, err
	}
	if err := pk.checkCiphertext(b); err != nil {
		return nil, err
	}
	return &Ciphertext{c: pk.mulN2(new(big.Int), a.c, b.c), byteLen: pk.byteLen}, nil
}

// AddPlain returns an encryption of m(ct)+k (mod N) without decrypting:
// ct · g^k = ct · (1 + k·N) mod N².
func (pk *PublicKey) AddPlain(ct *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	if k == nil {
		return nil, errors.New("paillier: nil scalar")
	}
	km := new(big.Int).Mod(k, pk.N) // accept any integer, reduce into Z_N
	gk := km.Mul(km, pk.N)
	gk.Add(gk, mathx.One)
	return &Ciphertext{c: pk.mulN2(gk, gk, ct.c), byteLen: pk.byteLen}, nil
}

// ScalarMul returns an encryption of k·m(ct) (mod N): ct^k mod N².
// This is the server's core operation in the selected-sum protocol, where k
// is a database value x_i. Negative k is mapped to N-|k| mod N (i.e. the
// additive inverse), enabling homomorphic subtraction.
func (pk *PublicKey) ScalarMul(ct *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	if k == nil {
		return nil, errors.New("paillier: nil scalar")
	}
	km := new(big.Int).Mod(k, pk.N)
	c := new(big.Int).Exp(ct.c, km, pk.NSquared)
	return &Ciphertext{c: c, byteLen: pk.byteLen}, nil
}

// Neg returns an encryption of -m(ct) mod N.
func (pk *PublicKey) Neg(ct *Ciphertext) (*Ciphertext, error) {
	if err := pk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	inv, err := mathx.ModInverse(ct.c, pk.NSquared)
	if err != nil {
		// A non-invertible ciphertext shares a factor with N — it would
		// factor the key. Treat as malformed input.
		return nil, fmt.Errorf("%w: not a unit mod N²", ErrCiphertextForm)
	}
	return &Ciphertext{c: inv, byteLen: pk.byteLen}, nil
}

// Sub returns an encryption of m(a) - m(b) mod N.
func (pk *PublicKey) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	nb, err := pk.Neg(b)
	if err != nil {
		return nil, err
	}
	return pk.Add(a, nb)
}

// Rerandomize returns a fresh encryption of the same plaintext,
// statistically unlinkable to ct: ct · r^N mod N² for a uniform unit r, the
// same product as ct · E(0; r) without encrypting the zero. The r^N comes
// from the key's batch, as Encrypt's does.
func (pk *PublicKey) Rerandomize(ct *Ciphertext) (*Ciphertext, error) {
	if err := pk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	rn, err := pk.randomizer()
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling rerandomization: %w", err)
	}
	return &Ciphertext{c: pk.mulN2(rn, rn, ct.c), byteLen: pk.byteLen}, nil
}

// rerandomizeWithNonce is ct · r^N mod N² for a ct already validated and a
// unit r of Z*_N.
func (pk *PublicKey) rerandomizeWithNonce(ct *Ciphertext, r *big.Int) *Ciphertext {
	rn := pk.reducer().Exp(new(big.Int), r, pk.N)
	return &Ciphertext{c: pk.mulN2(rn, rn, ct.c), byteLen: pk.byteLen}
}

// WeightedSum folds a ciphertext vector against a plaintext weight vector:
// Π cts[i]^weights[i] = E(Σ weights[i]·m_i). It is the single-shot form of
// the server's selected-sum loop. Vectors must have equal length.
func (pk *PublicKey) WeightedSum(cts []*Ciphertext, weights []*big.Int) (*Ciphertext, error) {
	if len(cts) != len(weights) {
		return nil, fmt.Errorf("paillier: %d ciphertexts vs %d weights", len(cts), len(weights))
	}
	acc := new(big.Int).Set(mathx.One) // E(0; r=1); rerandomized by the folds
	tmp, term := new(big.Int), new(big.Int)
	red, s := pk.reducer(), mathx.GetScratch()
	defer mathx.PutScratch(s)
	for i, ct := range cts {
		if err := pk.checkCiphertext(ct); err != nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, err)
		}
		w := weights[i]
		if w == nil {
			return nil, fmt.Errorf("paillier: weight %d is nil", i)
		}
		if w.Sign() == 0 {
			continue
		}
		wm := tmp.Mod(w, pk.N)
		red.Mul(acc, acc, term.Exp(ct.c, wm, pk.NSquared), s)
	}
	return &Ciphertext{c: acc, byteLen: pk.byteLen}, nil
}

// Fold is a streaming server fold: rows arrive a chunk of encoded
// ciphertexts at a time, each is raised to one scalar per column, and the
// per-column products Π ct_i^{k_i} mod N² = E(Σ k_i·m_i) come out at the end.
// The state is one bucket multi-exponentiation accumulator per column
// (mathx.MultiExpAcc), so the bucket combine and the shift squarings are paid
// once per fold however the rows were chunked on the wire, and a row in
// steady state allocates nothing. A Fold is not safe for concurrent use; it
// spreads a batch over lanes itself.
type Fold struct {
	pk   *PublicKey
	red  *mathx.Reducer
	accs []*mathx.MultiExpAcc
	row  big.Int // one ciphertext, decoded into reused storage
	// The batch: rows decoded and validated but not folded yet, in the
	// accumulators' layout row after row, and their scalars, one column per
	// accumulator.
	limbs []big.Word
	ks    [][]uint64
	left  int // rows the fold was sized for and has not seen yet
}

// foldBatchRows is the least number of rows one fan-out over the lanes folds,
// unless the fold has seen every row it was sized for. Each fan-out wakes the
// lanes and waits for the last of them. A 256-row chunk under a 1024-bit key
// folds in about a millisecond on two lanes. That is no longer than a shared
// host may take to wake an idle core or give back one it took away. So short
// chunks are held, decoded, until a batch of this many rows is due.
const foldBatchRows = 1024

// NewFold opens a fold sized for about rows rows against columns scalar
// columns. It panics on a key whose N is even: KeyGen and UnmarshalBinary
// never produce one, so only a hand-written literal can get here with it.
func (pk *PublicKey) NewFold(rows, columns int) *Fold {
	f := &Fold{pk: pk, red: pk.reducer(), accs: make([]*mathx.MultiExpAcc, columns), ks: make([][]uint64, columns), left: rows}
	batch := max(0, min(rows, foldBatchRows))
	f.limbs = make([]big.Word, 0, batch*f.red.Words())
	for c := range f.accs {
		acc, err := f.red.NewMultiExpAcc(rows)
		if err != nil {
			panic(fmt.Sprintf("paillier: fold mod N²: %v", err))
		}
		f.accs[c] = acc
		f.ks[c] = make([]uint64, 0, batch)
	}
	return f
}

// AddChunk decodes and validates every ciphertext of a chunk as
// ParseCiphertext does, even those whose scalars are all zero, and adds the
// chunk to the batch; cts holds the chunk's encodings back to back and ks one
// scalar column per fold column, one scalar per row. Once the batch holds
// foldBatchRows rows, or every row the fold was sized for has come, it folds
// ct_i^{ks[c][i]} into column c, on up to lanes goroutines split by exponent
// window (mathx.AddChunk). A bad ciphertext leaves the fold as it was:
// AddChunk returns its row within the chunk and the error. The sums are the
// same on any number of lanes and for any batching.
func (f *Fold) AddChunk(cts []byte, ks [][]uint64, lanes int) (int, error) {
	if len(ks) != len(f.accs) {
		panic(fmt.Sprintf("paillier: %d scalar columns for a %d-column fold", len(ks), len(f.accs)))
	}
	rows, width := 0, f.pk.byteLen
	if len(ks) > 0 {
		rows = len(ks[0])
	}
	if len(cts) != rows*width {
		return min(rows, len(cts)/width), fmt.Errorf("%w: %d bytes for %d ciphertexts of %d", ErrCiphertextForm, len(cts), rows, width)
	}
	n := f.red.Words()
	held := len(f.limbs) / n
	f.limbs = slices.Grow(f.limbs, rows*n)[:(held+rows)*n]
	for i := range rows {
		if err := f.pk.decodeCiphertext(&f.row, cts[i*width:(i+1)*width]); err != nil {
			f.limbs = f.limbs[:held*n]
			return i, err
		}
		f.red.Limbs(f.limbs[(held+i)*n:(held+i+1)*n], &f.row)
	}
	for c := range f.ks {
		f.ks[c] = append(f.ks[c], ks[c]...)
	}
	f.left -= rows
	if held+rows >= foldBatchRows || f.left <= 0 {
		f.flush(lanes)
	}
	return 0, nil
}

// flush folds the batch.
func (f *Fold) flush(lanes int) {
	mathx.AddChunk(f.accs, f.limbs, f.ks, lanes)
	f.limbs = f.limbs[:0]
	for c := range f.ks {
		f.ks[c] = f.ks[c][:0]
	}
}

// Sums folds what the batch still holds and returns the per-column results,
// their bucket combines on up to lanes goroutines. A column that saw only
// zero scalars yields E(0) with unit randomness, the multiplicative identity
// — fine as a fold accumulator, but callers exposing it to a peer must
// rerandomize first.
func (f *Fold) Sums(lanes int) []*Ciphertext {
	if len(f.limbs) > 0 {
		f.flush(lanes)
	}
	sums := make([]*Ciphertext, len(f.accs))
	for c, v := range mathx.Results(f.accs, lanes) {
		sums[c] = &Ciphertext{c: v, byteLen: f.pk.byteLen}
	}
	return sums
}

// FoldScalarMul returns E(Σ ks[i]·m_i) = Π cts[i]^{ks[i]} mod N² for
// ciphertexts already in memory: the one-shot form of Fold over the same
// accumulator. Zero scalars are skipped; workers > 1 splits the fold across
// goroutines by exponent window. When every scalar is zero the result is E(0)
// with unit randomness (see Fold.Sums).
func (pk *PublicKey) FoldScalarMul(cts []*Ciphertext, ks []uint64, workers int) (*Ciphertext, error) {
	if len(cts) != len(ks) {
		return nil, fmt.Errorf("paillier: %d ciphertexts vs %d scalars", len(cts), len(ks))
	}
	bases := make([]*big.Int, 0, len(cts))
	exps := make([]uint64, 0, len(ks))
	for i, ct := range cts {
		if err := pk.checkCiphertext(ct); err != nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, err)
		}
		if ks[i] == 0 {
			continue
		}
		bases = append(bases, ct.c)
		exps = append(exps, ks[i])
	}
	acc, err := mathx.MultiExpParallel(bases, exps, pk.NSquared, 0, workers)
	if err != nil {
		return nil, fmt.Errorf("paillier: multi-exponentiation: %w", err)
	}
	return &Ciphertext{c: acc, byteLen: pk.byteLen}, nil
}

// ParseCiphertext decodes a fixed-width encoding produced by
// Ciphertext.Bytes, rejecting out-of-range values.
func (pk *PublicKey) ParseCiphertext(b []byte) (*Ciphertext, error) {
	v := new(big.Int)
	if err := pk.decodeCiphertext(v, b); err != nil {
		return nil, err
	}
	return &Ciphertext{c: v, byteLen: pk.byteLen}, nil
}

// decodeCiphertext sets v to the ciphertext encoded in b, rejecting a wrong
// width and values outside (0, N²).
func (pk *PublicKey) decodeCiphertext(v *big.Int, b []byte) error {
	if len(b) != pk.byteLen {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrCiphertextForm, len(b), pk.byteLen)
	}
	if v.SetBytes(b); v.Sign() <= 0 || v.Cmp(pk.NSquared) >= 0 {
		return fmt.Errorf("%w: value outside (0, N²)", ErrCiphertextForm)
	}
	return nil
}

// CiphertextSize returns the fixed wire width of one encoded ciphertext.
func (pk *PublicKey) CiphertextSize() int { return pk.byteLen }
