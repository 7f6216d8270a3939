// Package stats computes statistics of selected rows in a remote database
// privately, on top of the selected-sum protocol. The paper's introduction
// motivates the selected sum exactly this way: "such protocols immediately
// yield private solutions for computing means, variances, and weighted
// averages".
//
// Everything the client learns is derivable from the sums it is entitled
// to: mean = S/m, variance = (m·Q − S²)/m², where S = Σ x_i and Q = Σ x_i²
// over the selection. The variance query folds the client's single
// encrypted index vector against the server's value column and square
// column in one round, so it costs one uplink and two response ciphertexts
// rather than two full protocol runs.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// ErrEmptySelection is returned for statistics undefined on zero rows.
var ErrEmptySelection = errors.New("stats: selection is empty")

// Analyst is a client that issues private statistical queries.
type Analyst struct {
	sk   homomorphic.PrivateKey
	link netsim.Link
	// chunkSize and pool configure the underlying protocol exactly as in
	// selectedsum.Options.
	chunkSize int
	pool      homomorphic.EncryptorPool
}

// Config carries the optional protocol knobs for an Analyst.
type Config struct {
	// Link is the communication environment (required).
	Link netsim.Link
	// ChunkSize batches the index stream; 0 sends one chunk.
	ChunkSize int
	// Pool supplies preprocessed bit encryptions; nil encrypts online.
	Pool homomorphic.EncryptorPool
}

// NewAnalyst builds an analyst over the given key.
func NewAnalyst(sk homomorphic.PrivateKey, cfg Config) (*Analyst, error) {
	if sk == nil {
		return nil, errors.New("stats: nil private key")
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	return &Analyst{sk: sk, link: cfg.Link, chunkSize: cfg.ChunkSize, pool: cfg.Pool}, nil
}

// Cost summarizes what a query consumed.
type Cost struct {
	// Online is the end-to-end modelled online time.
	Online time.Duration
	// BytesUp and BytesDown are the exact wire byte counts.
	BytesUp, BytesDown int64
}

func (a *Analyst) options() selectedsum.Options {
	return selectedsum.Options{
		Link:      a.link,
		ChunkSize: a.chunkSize,
		Pool:      a.pool,
	}
}

// Sum privately computes Σ x_i over the selection.
func (a *Analyst) Sum(table *database.Table, sel *database.Selection) (*big.Int, Cost, error) {
	res, err := selectedsum.Run(a.sk, table, sel, a.options())
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Sum, Cost{Online: res.Timings.Total, BytesUp: res.BytesUp, BytesDown: res.BytesDown}, nil
}

// Mean privately computes the exact mean of the selected rows as a
// rational number.
func (a *Analyst) Mean(table *database.Table, sel *database.Selection) (*big.Rat, Cost, error) {
	if sel.Count() == 0 {
		return nil, Cost{}, ErrEmptySelection
	}
	sum, cost, err := a.Sum(table, sel)
	if err != nil {
		return nil, Cost{}, err
	}
	return new(big.Rat).SetFrac(sum, big.NewInt(int64(sel.Count()))), cost, nil
}

// Moments holds the first two selected moments and derived statistics.
type Moments struct {
	// Count is m, the number of selected rows (known to the client).
	Count int
	// Sum is Σ x_i and SumSquares is Σ x_i² over the selection.
	Sum, SumSquares *big.Int
	// Mean is Sum/Count.
	Mean *big.Rat
	// Variance is the exact population variance (m·Q − S²)/m².
	Variance *big.Rat
}

// StdDev returns the population standard deviation as a float64.
func (m *Moments) StdDev() float64 {
	v, _ := m.Variance.Float64()
	if v < 0 {
		// Exact arithmetic cannot go negative; guard against future edits.
		return 0
	}
	return math.Sqrt(v)
}

// MomentsQuery privately computes count, sum, mean, and variance of the
// selected rows in a single protocol round: the encrypted index vector is
// folded against both the value column and the square column.
func (a *Analyst) MomentsQuery(table *database.Table, sel *database.Selection) (*Moments, Cost, error) {
	if sel.Count() == 0 {
		return nil, Cost{}, ErrEmptySelection
	}
	if sel.Len() != table.Len() {
		return nil, Cost{}, fmt.Errorf("stats: selection length %d != table length %d", sel.Len(), table.Len())
	}
	pk := a.sk.PublicKey()
	n := table.Len()

	// Σx² over 32-bit values needs the plaintext space to hold n·(2³²−1)²
	// ≈ n·2⁶⁴; guard explicitly so a too-small key fails loudly.
	bound := new(big.Int).Lsh(big.NewInt(int64(n)), 64)
	if bound.Cmp(pk.PlaintextSpace()) >= 0 {
		return nil, Cost{}, fmt.Errorf("stats: plaintext space too small for Σx² over %d rows", n)
	}

	valSession, err := selectedsum.NewShardSession(pk, table.Column(), uint64(n), 0)
	if err != nil {
		return nil, Cost{}, err
	}
	sqSession, err := selectedsum.NewShardSession(pk, table.SquareColumn(), uint64(n), 0)
	if err != nil {
		return nil, Cost{}, err
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
		// One uplink chunk feeds both folds.
		if err := valSession.Absorb(decoded); err != nil {
			return nil, Cost{}, err
		}
		if err := sqSession.Absorb(decoded); err != nil {
			return nil, Cost{}, err
		}
	}

	sumCt, err := valSession.Finalize(nil)
	if err != nil {
		return nil, Cost{}, err
	}
	sqCt, err := sqSession.Finalize(nil)
	if err != nil {
		return nil, Cost{}, err
	}
	sum, err := a.sk.Decrypt(sumCt)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("stats: decrypting Σx: %w", err)
	}
	sumSq, err := a.sk.Decrypt(sqCt)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("stats: decrypting Σx²: %w", err)
	}
	elapsed := time.Since(start)

	m := int64(sel.Count())
	bm := big.NewInt(m)
	mean := new(big.Rat).SetFrac(sum, bm)
	// variance = (m·Q − S²) / m²
	num := new(big.Int).Mul(bm, sumSq)
	num.Sub(num, new(big.Int).Mul(sum, sum))
	variance := new(big.Rat).SetFrac(num, new(big.Int).Mul(bm, bm))

	bytesDown := int64(2 * (wire.FrameOverhead + width))
	cost := Cost{
		Online:    elapsed + a.link.OneWayTime(bytesUp) + a.link.OneWayTime(bytesDown),
		BytesUp:   bytesUp,
		BytesDown: bytesDown,
	}
	return &Moments{
		Count:      sel.Count(),
		Sum:        sum,
		SumSquares: sumSq,
		Mean:       mean,
		Variance:   variance,
	}, cost, nil
}

// Variance privately computes the exact population variance of the
// selected rows.
func (a *Analyst) Variance(table *database.Table, sel *database.Selection) (*big.Rat, Cost, error) {
	m, cost, err := a.MomentsQuery(table, sel)
	if err != nil {
		return nil, Cost{}, err
	}
	return m.Variance, cost, nil
}
