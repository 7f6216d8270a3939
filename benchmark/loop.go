package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// phase is what one timed stretch of a workload's closed loop produced. Its
// times are scaled to the reference host (see calibrate.go) except where
// named raw.
type phase struct {
	latencies []time.Duration // one per verified op, sorted
	// rounds holds, per client and round of the workload's op mix (five
	// consecutive jobs of jobs-mixed, a single query elsewhere), the mean
	// latency of the round's ops, sorted. A mix of cheap and costly ops has a
	// latency distribution with one hump per kind, and its median sits on the
	// edge of a hump; a round always holds one op of each kind.
	rounds    []time.Duration
	submits   []time.Duration // POST to 202 of each job, sorted
	rawP50    time.Duration   // the median op as the clock read it
	rows      int
	attempted int
	failed    int
	firstErr  error
	// rowsPerSec sums the clients' own rates: each client's rows over the time
	// to its last completed op, so an op cut off by the clock costs nothing.
	rowsPerSec float64
	opsPerSec  float64
	cpu        time.Duration // of the ops: the bursts' own CPU is taken off
	wireBytes  int64
	mem        runtime.MemStats // delta of the cumulative fields over the phase
	// slowdown is the phase's busy time over its scaled busy time: how much
	// slower than the reference host the host was, on average.
	slowdown float64
}

// clientTotals is one client's part of a phase.
type clientTotals struct {
	latencies, raw []time.Duration
	submits        []time.Duration
	rows, ops      int
	failed         int
	firstErr       error
	busy, scaled   time.Duration // time in batches, as read and scaled
	bursts         time.Duration // CPU the bursts used
}

// runBatches is one client's closed loop until deadline: batches of ops, each
// at least burstEvery long, with a burst before and after to scale it by.
// Every op is issued when the previous one has been verified, and an op in
// flight at the deadline is completed and counted.
func runBatches(ctx context.Context, c *client, deadline time.Time) clientTotals {
	var t clientTotals
	before, cpu := burst()
	t.bursts = cpu
	for time.Now().Before(deadline) && ctx.Err() == nil {
		start := time.Now()
		var batch []opResult
		for {
			res, err := c.do(ctx)
			if err != nil {
				t.failed++
				if t.firstErr == nil {
					t.firstErr = err
				}
			} else {
				batch = append(batch, res)
			}
			if now := time.Now(); now.Sub(start) >= burstEvery || !now.Before(deadline) || ctx.Err() != nil {
				break
			}
		}
		busy := time.Since(start)
		after, cpu := burst()
		t.bursts += cpu
		t.busy += busy
		t.scaled += scale(busy, before, after)
		for _, res := range batch {
			t.ops++
			t.rows += res.rows
			t.raw = append(t.raw, res.latency)
			t.latencies = append(t.latencies, scale(res.latency, before, after))
			if res.submit > 0 {
				t.submits = append(t.submits, scale(res.submit, before, after))
			}
		}
		before = after
	}
	return t
}

// runPhase drives the clients' closed loops against st for d.
func runPhase(ctx context.Context, st *stack, clients []*client, d time.Duration) (*phase, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	bytes0 := st.wireBytes.Load()

	totals := make([]clientTotals, len(clients))
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			totals[i] = runBatches(ctx, c, deadline)
		}(i, c)
	}
	wg.Wait()

	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	ph := &phase{wireBytes: st.wireBytes.Load() - bytes0}
	ph.mem.Mallocs = after.Mallocs - before.Mallocs
	ph.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	ph.mem.PauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
	var raw []time.Duration
	var busy, scaled, bursts time.Duration
	round := st.w.opsPerRound()
	for _, t := range totals {
		ph.latencies = append(ph.latencies, t.latencies...)
		for i := round; i <= len(t.latencies); i += round {
			var sum time.Duration
			for _, l := range t.latencies[i-round : i] {
				sum += l
			}
			ph.rounds = append(ph.rounds, sum/time.Duration(round))
		}
		ph.submits = append(ph.submits, t.submits...)
		raw = append(raw, t.raw...)
		ph.rows += t.rows
		ph.attempted += t.ops + t.failed
		ph.failed += t.failed
		if ph.firstErr == nil {
			ph.firstErr = t.firstErr
		}
		if t.scaled > 0 {
			ph.rowsPerSec += float64(t.rows) / t.scaled.Seconds()
			ph.opsPerSec += float64(t.ops) / t.scaled.Seconds()
		}
		busy, scaled, bursts = busy+t.busy, scaled+t.scaled, bursts+t.bursts
	}
	if ph.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed, first: %v\n", st.w.name, ph.failed, ph.attempted, ph.firstErr)
	}
	if len(ph.latencies) == 0 {
		return nil, fmt.Errorf("%s: no op completed in %v (first error: %v)", st.w.name, d, ph.firstErr)
	}
	sortDurations(ph.latencies)
	sortDurations(ph.rounds)
	sortDurations(ph.submits)
	sortDurations(raw)
	ph.rawP50 = median(raw)
	ph.slowdown = float64(busy) / float64(scaled)
	ph.cpu = time.Duration(float64(cpu1-cpu0-bursts) / ph.slowdown)
	return ph, nil
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// median of a sorted, non-empty slice.
func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the highest percentile of sorted that still has at least ten
// samples beyond it, with its rank; with fewer than twenty-one samples that
// is the median.
func tail(sorted []time.Duration) (value time.Duration, percentile float64) {
	n := len(sorted)
	if n < 21 {
		return median(sorted), 50
	}
	i := n - 11 // ten samples lie beyond index i
	return sorted[i], 100 * float64(i+1) / float64(n)
}

func (st *stack) newClients(seed int64, traced bool) []*client {
	clients := make([]*client, st.w.clients)
	for i := range clients {
		clients[i] = st.newClient(seed, i, traced)
	}
	return clients
}
