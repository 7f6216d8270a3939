// Package cluster is the horizontal deployment of the private selected-sum
// protocol: a shard map assigns contiguous row ranges of one logical
// database to backend groups (each a stock internal/server runtime), an
// untrusted aggregator fans a client's encrypted index vector out to the
// shards and homomorphically combines the partial sums, and a production
// client runtime gives every backend hop pooling, timeouts, bounded retry,
// and replica failover.
//
// The trust argument (DESIGN.md §9): the aggregator only ever handles
// ciphertexts under the client's key — it cannot learn the selection, the
// per-shard partials, or the total. Backends see exactly the slice of the
// encrypted index vector covering their own rows, which is precisely what
// they would see as standalone servers of a smaller database. Each shard
// rerandomizes its own partial, and the aggregator multiplies them: the
// client receives a single ciphertext that is a fresh encryption of the
// total, distributed alike for one shard or many, so it cannot tell how many
// shards (or which) served it. This is the paper's "multiple distributed
// databases" extension (§2) made operational.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Shard is one contiguous row range [Lo, Hi) of the logical database and
// the backends that can serve it: Backends[0] is the primary, the rest are
// replicas holding the same rows.
type Shard struct {
	Lo, Hi   int
	Backends []string
}

// Rows returns the shard's row count.
func (s Shard) Rows() int { return s.Hi - s.Lo }

// ShardMap is a validated, ordered, gap-free cover of [0, Rows()) by
// shards. It is immutable after construction and safe for concurrent use.
type ShardMap struct {
	shards []Shard
	rows   int
}

// NewShardMap validates and freezes a shard list: shards must be given in
// row order, start at row 0, tile the space without gaps or overlaps, be
// non-empty, and each name at least one backend.
func NewShardMap(shards []Shard) (*ShardMap, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: empty shard map")
	}
	next := 0
	out := make([]Shard, len(shards))
	for i, s := range shards {
		if s.Lo != next {
			return nil, fmt.Errorf("cluster: shard %d starts at row %d, want %d (shards must tile [0,n) in order)", i, s.Lo, next)
		}
		if s.Hi <= s.Lo {
			return nil, fmt.Errorf("cluster: shard %d has empty range [%d,%d)", i, s.Lo, s.Hi)
		}
		if len(s.Backends) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no backends", i)
		}
		for _, b := range s.Backends {
			if strings.TrimSpace(b) == "" {
				return nil, fmt.Errorf("cluster: shard %d has an empty backend address", i)
			}
		}
		out[i] = Shard{Lo: s.Lo, Hi: s.Hi, Backends: append([]string(nil), s.Backends...)}
		next = s.Hi
	}
	return &ShardMap{shards: out, rows: next}, nil
}

// ParseShardMap parses the sumproxy -shards syntax: semicolon-separated
// shard specs, each "lo-hi=primary[|replica...]" with hi exclusive, e.g.
//
//	0-5000=db1:7001|db1b:7001;5000-10000=db2:7001
func ParseShardMap(spec string) (*ShardMap, error) {
	var shards []Shard
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rangeSpec, backendSpec, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: shard %q: want lo-hi=backend[|backend...]", part)
		}
		loStr, hiStr, ok := strings.Cut(rangeSpec, "-")
		if !ok {
			return nil, fmt.Errorf("cluster: shard range %q: want lo-hi", rangeSpec)
		}
		lo, err := strconv.Atoi(strings.TrimSpace(loStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard range %q: %w", rangeSpec, err)
		}
		hi, err := strconv.Atoi(strings.TrimSpace(hiStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard range %q: %w", rangeSpec, err)
		}
		var backends []string
		for _, b := range strings.Split(backendSpec, "|") {
			b = strings.TrimSpace(b)
			if b != "" {
				backends = append(backends, b)
			}
		}
		shards = append(shards, Shard{Lo: lo, Hi: hi, Backends: backends})
	}
	return NewShardMap(shards)
}

// Rows returns the logical database size the map covers.
func (m *ShardMap) Rows() int { return m.rows }

// Shards returns the ordered shard list (callers must not mutate it).
func (m *ShardMap) Shards() []Shard { return m.shards }

// Len returns the shard count.
func (m *ShardMap) Len() int { return len(m.shards) }

// String renders the map in the -shards syntax.
func (m *ShardMap) String() string {
	parts := make([]string, len(m.shards))
	for i, s := range m.shards {
		parts[i] = fmt.Sprintf("%d-%d=%s", s.Lo, s.Hi, strings.Join(s.Backends, "|"))
	}
	return strings.Join(parts, ";")
}
