package database

import (
	"errors"
	"fmt"
	"math/rand"
)

// Selection is the client-side index vector I_1..I_n of the paper: bit i is
// set when x_i participates in the sum. It is stored as a packed bitset;
// the protocol layer reads it bit by bit while streaming encryptions.
type Selection struct {
	n     int
	words []uint64
	count int // number of set bits, maintained incrementally
}

// NewSelection returns an empty selection over n positions.
func NewSelection(n int) (*Selection, error) {
	if n < 0 {
		return nil, errors.New("database: negative selection length")
	}
	return &Selection{n: n, words: make([]uint64, (n+63)/64)}, nil
}

// Len returns the vector length n.
func (s *Selection) Len() int { return s.n }

// Count returns the number of selected positions m.
func (s *Selection) Count() int { return s.count }

// Bit returns 1 when position i is selected, else 0. It panics on
// out-of-range i, matching slice semantics.
func (s *Selection) Bit(i int) uint {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("database: selection index %d out of range [0,%d)", i, s.n))
	}
	return uint(s.words[i/64]>>(i%64)) & 1
}

// Set marks position i as selected.
func (s *Selection) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("database: selection index %d out of range [0,%d)", i, s.n))
	}
	w, b := i/64, uint(i%64)
	if s.words[w]&(1<<b) == 0 {
		s.words[w] |= 1 << b
		s.count++
	}
}

// Indices returns the selected positions in increasing order.
func (s *Selection) Indices() []int {
	out := make([]int, 0, s.count)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// Slice returns the sub-selection covering positions [lo, hi), reindexed to
// start at 0 — the shard a single client handles in the multi-client
// protocol (§3.5).
func (s *Selection) Slice(lo, hi int) (*Selection, error) {
	if lo < 0 || hi < lo || hi > s.n {
		return nil, fmt.Errorf("database: bad selection slice [%d,%d) of %d", lo, hi, s.n)
	}
	sub, err := NewSelection(hi - lo)
	if err != nil {
		return nil, err
	}
	for i := lo; i < hi; i++ {
		if s.Bit(i) == 1 {
			sub.Set(i - lo)
		}
	}
	return sub, nil
}

// SelectionPattern names a synthetic selection shape.
type SelectionPattern int

// Supported selection patterns for workload generation.
const (
	// PatternRandom selects m positions uniformly without replacement —
	// the paper's generic "m selected numbers".
	PatternRandom SelectionPattern = iota
	// PatternPrefix selects the first m positions: a contiguous range
	// query (e.g. a date range over time-ordered rows).
	PatternPrefix
	// PatternStride selects every (n/m)'th position: a maximally spread
	// selection, the adversarial case for locality-based optimizations.
	PatternStride
)

// String implements fmt.Stringer.
func (p SelectionPattern) String() string {
	switch p {
	case PatternRandom:
		return "random"
	case PatternPrefix:
		return "prefix"
	case PatternStride:
		return "stride"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// GenerateSelection builds a deterministic selection of exactly m of n
// positions in the given pattern.
func GenerateSelection(n, m int, pattern SelectionPattern, seed int64) (*Selection, error) {
	if m < 0 || m > n {
		return nil, fmt.Errorf("database: cannot select %d of %d positions", m, n)
	}
	s, err := NewSelection(n)
	if err != nil {
		return nil, err
	}
	switch pattern {
	case PatternRandom:
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(n)[:m] {
			s.Set(i)
		}
	case PatternPrefix:
		for i := 0; i < m; i++ {
			s.Set(i)
		}
	case PatternStride:
		if m > 0 {
			stride := n / m
			if stride == 0 {
				stride = 1
			}
			for i := 0; i < n && s.Count() < m; i += stride {
				s.Set(i)
			}
			// Stride rounding can leave a shortfall; top up from the end.
			for i := n - 1; i >= 0 && s.Count() < m; i-- {
				s.Set(i)
			}
		}
	default:
		return nil, fmt.Errorf("database: unknown selection pattern %d", int(pattern))
	}
	if s.Count() != m {
		return nil, fmt.Errorf("database: pattern %v produced %d of %d requested positions", pattern, s.Count(), m)
	}
	return s, nil
}
