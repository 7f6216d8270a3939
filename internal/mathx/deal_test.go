package mathx

import (
	"sync"
	"testing"
	"time"

	"privstats/internal/testutil"
)

// dealLog records which lane ran which pair.
type dealLog struct {
	mu    sync.Mutex
	lanes map[int]int // pair → lane
	runs  int
}

func (g *dealLog) ran(l, p int, t *testing.T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.lanes[p]; ok {
		t.Errorf("pair %d ran on lane %d and again on lane %d", p, prev, l)
	}
	g.lanes[p] = l
	g.runs++
}

func (g *dealLog) done() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs
}

// TestDealRunsLanesAtOnce: while lane 0 is held in its first pair, another
// lane takes the next one, and every pair runs exactly once.
func TestDealRunsLanesAtOnce(t *testing.T) {
	testutil.GuardGoroutines(t)
	const pairs = 8
	log := &dealLog{lanes: map[int]int{}}
	other := make(chan struct{})
	var once sync.Once
	Deal(3, pairs, func(l, p int) {
		if l != 0 {
			once.Do(func() { close(other) })
		} else if p == 0 {
			select {
			case <-other:
			case <-time.After(10 * time.Second):
				t.Error("lane 0 held its first pair and no other lane took one")
			}
		}
		log.ran(l, p, t)
	})
	if log.done() != pairs {
		t.Fatalf("%d of %d pairs ran", log.done(), pairs)
	}
}

// TestDealLateLaneLeavesItsShare: a lane held up in its first pair keeps no
// share of the rest; lane 0 runs every other pair, and Deal returns once the
// held pair is done.
func TestDealLateLaneLeavesItsShare(t *testing.T) {
	testutil.GuardGoroutines(t)
	const pairs = 9
	log := &dealLog{lanes: map[int]int{}}
	rest := make(chan struct{}) // closed once lane 0 has run all but one pair
	var once sync.Once
	Deal(2, pairs, func(l, p int) {
		if l != 0 {
			// Held until lane 0 has run all the others: with a fixed share
			// of the pairs it never would, and the timer lets it go.
			select {
			case <-rest:
			case <-time.After(10 * time.Second):
			}
		}
		log.ran(l, p, t)
		if l == 0 && log.done() == pairs-1 {
			once.Do(func() { close(rest) })
		}
	})
	if log.done() != pairs {
		t.Fatalf("%d of %d pairs ran", log.done(), pairs)
	}
	onLane0 := 0
	for _, l := range log.lanes {
		if l == 0 {
			onLane0++
		}
	}
	if onLane0 < pairs-1 {
		t.Errorf("lane 0 ran %d of %d pairs while lane 1 was held in one", onLane0, pairs)
	}
}
