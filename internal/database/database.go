// Package database provides the server-side data substrate for the
// selected-sum experiments: a store of 32-bit values (the paper's databases
// hold "numbers of 32 bits each"), synthetic workload generators for the
// evaluation sweeps, and selection-vector utilities for the client side.
//
// All generators are deterministic given a seed, so every experiment in the
// bench harness is reproducible run to run.
package database

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
)

// Table is an immutable-after-construction column of 32-bit values, plus a
// lazily built column of squares used by the private-variance statistic
// (variance needs Σx² as well as Σx; the server exposes both columns to the
// homomorphic fold, never to the client).
type Table struct {
	values []uint32

	squaresOnce sync.Once
	squares     []uint64 // squares[i] = values[i]^2, built on demand
}

// New builds a table over the given values. The slice is copied.
func New(values []uint32) *Table {
	t := &Table{values: make([]uint32, len(values))}
	copy(t.values, values)
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.values) }

// Value returns row i.
func (t *Table) Value(i int) uint32 { return t.values[i] }

// Values returns the backing column. Callers must not modify it.
func (t *Table) Values() []uint32 { return t.values }

// Squares returns the column of squared values, building it on first use.
// Safe for concurrent sessions folding against the same table.
func (t *Table) Squares() []uint64 {
	t.squaresOnce.Do(func() {
		sq := make([]uint64, len(t.values))
		for i, v := range t.values {
			sq[i] = uint64(v) * uint64(v)
		}
		t.squares = sq
	})
	return t.squares
}

// Column is a read-only numeric column the protocol server folds against.
// Table exposes its values and their squares through it; the stats layer
// folds one encrypted index vector against both to get Σx and Σx² in a
// single protocol round.
type Column interface {
	// Len returns the number of rows.
	Len() int
	// At returns row i as an unsigned 64-bit value.
	At(i int) uint64
	// Fill sets dst[k] to row first+k for every k, as At would return it,
	// in one call for the whole range. It panics if the range is not within
	// [0, Len()).
	Fill(dst []uint64, first int)
}

// checkFill panics unless [first, first+rows) is within a column of n rows.
func checkFill(first, rows, n int) {
	if first < 0 || first > n || rows > n-first {
		panic(fmt.Sprintf("database: column rows [%d,%d) out of range [0,%d)", first, first+rows, n))
	}
}

type valueColumn struct{ t *Table }

func (c valueColumn) Len() int        { return len(c.t.values) }
func (c valueColumn) At(i int) uint64 { return uint64(c.t.values[i]) }

func (c valueColumn) Fill(dst []uint64, first int) {
	checkFill(first, len(dst), len(c.t.values))
	for k, v := range c.t.values[first : first+len(dst)] {
		dst[k] = uint64(v)
	}
}

type squareColumn struct{ sq []uint64 }

func (c squareColumn) Len() int        { return len(c.sq) }
func (c squareColumn) At(i int) uint64 { return c.sq[i] }

func (c squareColumn) Fill(dst []uint64, first int) {
	checkFill(first, len(dst), len(c.sq))
	copy(dst, c.sq[first:])
}

// Column returns the table's value column.
func (t *Table) Column() Column { return valueColumn{t} }

// Source is any table substrate the protocol server can fold against: the
// in-memory Table, a disk-backed colstore.Store, or a sub-range view of
// either. The server only ever needs the row count and the two statistic
// columns (the ones column is derived from Len), so swapping substrates is
// invisible to the wire protocol and to clients.
type Source interface {
	// Len returns the number of rows.
	Len() int
	// Column returns the value column.
	Column() Column
	// SquareColumn returns the column of squared values.
	SquareColumn() Column
}

var _ Source = (*Table)(nil)

// SquareColumn returns the column of squared values.
func (t *Table) SquareColumn() Column { return squareColumn{sq: t.Squares()} }

type onesColumn struct{ n int }

func (c onesColumn) Len() int    { return c.n }
func (onesColumn) At(int) uint64 { return 1 }

func (c onesColumn) Fill(dst []uint64, first int) {
	checkFill(first, len(dst), c.n)
	for k := range dst {
		dst[k] = 1
	}
}

// Ones returns the constant-1 column of length n. Folding the encrypted
// index vector against it yields the selected count m without revealing
// which rows were selected — the count leg of group-by and count queries.
func Ones(n int) Column { return onesColumn{n: n} }

// Shard returns a view of rows [lo, hi) sharing the backing storage — the
// slice of the database one client covers in the multi-client protocol.
func (t *Table) Shard(lo, hi int) (*Table, error) {
	if lo < 0 || hi < lo || hi > len(t.values) {
		return nil, fmt.Errorf("database: bad shard [%d,%d) of %d rows", lo, hi, len(t.values))
	}
	return &Table{values: t.values[lo:hi]}, nil
}

// SelectedSum returns the cleartext Σ_{i: sel[i]} values[i]. It is the
// correctness oracle every private-protocol test compares against. The
// result is exact (big.Int), since 100,000 values of 2³²-1 exceed uint64
// only at ~4 billion rows but the weighted variants can overflow sooner.
func (t *Table) SelectedSum(sel *Selection) (*big.Int, error) {
	if sel.Len() != t.Len() {
		return nil, fmt.Errorf("database: selection length %d != table length %d", sel.Len(), t.Len())
	}
	sum := new(big.Int)
	tmp := new(big.Int)
	for _, i := range sel.Indices() {
		sum.Add(sum, tmp.SetUint64(uint64(t.values[i])))
	}
	return sum, nil
}

// SelectedSumOfSquares returns the cleartext Σ_{i: sel[i]} values[i]².
func (t *Table) SelectedSumOfSquares(sel *Selection) (*big.Int, error) {
	if sel.Len() != t.Len() {
		return nil, fmt.Errorf("database: selection length %d != table length %d", sel.Len(), t.Len())
	}
	sq := t.Squares()
	sum := new(big.Int)
	tmp := new(big.Int)
	for _, i := range sel.Indices() {
		sum.Add(sum, tmp.SetUint64(sq[i]))
	}
	return sum, nil
}

// Distribution selects a synthetic value distribution.
type Distribution int

// Supported distributions. Uniform matches the paper's generic "numbers";
// the others exercise value-dependent server cost (the exponent bit length
// varies with the value) in the ablation benches.
const (
	// DistUniform draws uniformly from [0, 2^32).
	DistUniform Distribution = iota
	// DistSmall draws uniformly from [0, 1000): e.g. ages, counts.
	DistSmall
	// DistZipf draws from a Zipf(1.1) distribution capped at 2^32-1:
	// heavy-tailed values such as incomes or transaction amounts.
	DistZipf
	// DistConstant sets every value to 1: turns the selected sum into a
	// selected count, a useful protocol-level degenerate case.
	DistConstant
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case DistUniform:
		return "uniform32"
	case DistSmall:
		return "small(<1000)"
	case DistZipf:
		return "zipf(1.1)"
	case DistConstant:
		return "constant(1)"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// ParseDistribution maps the CLI names to distributions.
func ParseDistribution(name string) (Distribution, error) {
	switch name {
	case "uniform":
		return DistUniform, nil
	case "small":
		return DistSmall, nil
	case "zipf":
		return DistZipf, nil
	case "constant":
		return DistConstant, nil
	default:
		return 0, fmt.Errorf("database: unknown distribution %q (want uniform, small, zipf, or constant)", name)
	}
}

// ValueStream yields the exact value sequence of Generate one row at a
// time — the out-of-core ingest path for tables too large to materialize.
// Generate is implemented on top of it, so the two can never drift: a
// streamed 10^8-row store and an in-memory oracle over the same seed hold
// identical rows.
type ValueStream struct {
	dist Distribution
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewValueStream starts the deterministic row sequence for (dist, seed).
func NewValueStream(dist Distribution, seed int64) (*ValueStream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &ValueStream{dist: dist, rng: rng}
	switch dist {
	case DistUniform, DistSmall, DistConstant:
	case DistZipf:
		s.zipf = rand.NewZipf(rng, 1.1, 1, 1<<32-1)
	default:
		return nil, fmt.Errorf("database: unknown distribution %d", int(dist))
	}
	return s, nil
}

// Next returns the next row.
func (s *ValueStream) Next() uint32 {
	switch s.dist {
	case DistUniform:
		return s.rng.Uint32()
	case DistSmall:
		return uint32(s.rng.Intn(1000))
	case DistZipf:
		return uint32(s.zipf.Uint64())
	default: // DistConstant
		return 1
	}
}

// Fill overwrites vals with the next len(vals) rows.
func (s *ValueStream) Fill(vals []uint32) {
	for i := range vals {
		vals[i] = s.Next()
	}
}

// Generate builds a deterministic synthetic table of n rows drawn from the
// distribution with the given seed.
func Generate(n int, dist Distribution, seed int64) (*Table, error) {
	if n < 0 {
		return nil, errors.New("database: negative table size")
	}
	stream, err := NewValueStream(dist, seed)
	if err != nil {
		return nil, err
	}
	values := make([]uint32, n)
	stream.Fill(values)
	return &Table{values: values}, nil
}
