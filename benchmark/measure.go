package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is the last line a single pass prints on standard output.
type passResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A pass sets the deployment up repeatedly, at least minSetups times and
// until setupShare of the measured time has gone into set-up (a
// two-millisecond set-up needs more repeats than an eighty-millisecond one
// for a steady median), but never more than maxSetups times. setup_s is the
// median; the last deployment is the one the pass measures.
const (
	minSetups  = 5
	maxSetups  = 40
	setupShare = 0.05
)

// warmShare of the measured time is run, unrecorded, before measuring.
const warmShare = 0.15

// setUpRepeatedly returns the last of its deployments under workDir, the
// earlier ones torn down again, and the median set-up time, each set-up
// scaled by the bursts around it like a batch of ops.
func setUpRepeatedly(w workload, seed int64, budget time.Duration, workDir string) (*stack, time.Duration, error) {
	var times []time.Duration
	var total time.Duration
	before, _ := burst()
	for rep := 1; ; rep++ {
		dir := filepath.Join(workDir, fmt.Sprintf("setup%d", rep))
		start := time.Now()
		st, err := setUp(w, seed, dir, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		after, _ := burst()
		times = append(times, scale(took, before, after))
		before = after
		total += took
		if rep == maxSetups || (rep >= minSetups && total >= budget) {
			sortDurations(times)
			return st, median(times), nil
		}
		if err := st.shutDown(); err != nil {
			return nil, 0, fmt.Errorf("tearing down set-up %d: %w", rep, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
}

// measuredPass is the untraced run: set-up, warm-up, then d of closed-loop
// load, reported as the end-to-end metrics.
func measuredPass(ctx context.Context, w workload, seed int64, d time.Duration, workDir string) (*passResult, error) {
	st, setup, err := setUpRepeatedly(w, seed, time.Duration(setupShare*float64(d)), workDir)
	if err != nil {
		return nil, err
	}
	ph, err := func() (*phase, error) {
		clients := st.newClients(seed, false)
		if _, err := runPhase(ctx, st, clients, time.Duration(warmShare*float64(d))); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("restarting the peak RSS: %w", err)
		}
		return runPhase(ctx, st, clients, d)
	}()
	if downErr := st.shutDown(); err == nil {
		err = downErr
	}
	if err != nil {
		return nil, err
	}
	if len(ph.rounds) == 0 {
		return nil, fmt.Errorf("%s: no round of %d ops completed in %v", w.name, w.opsPerRound(), d)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	tailValue, tailPct := tail(ph.latencies)
	fmt.Fprintf(os.Stderr, "%s: %d ops verified in %d rounds, %d failed; %d rows; op p50 %v, p%.1f %v; host %.3f times slower than the reference, op p50 as the clock read it %v\n",
		w.name, len(ph.latencies), len(ph.rounds), ph.failed, ph.rows, median(ph.latencies), tailPct, tailValue, ph.slowdown, ph.rawP50)
	krows := float64(ph.rows) / 1000
	return &passResult{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"latency_p50_s":      {median(ph.rounds).Seconds(), "s"},
			"rows_per_s":         {ph.rowsPerSec, "rows/s"},
			"cpu_ms_per_krow":    {float64(ph.cpu) / float64(time.Millisecond) / krows, "ms"},
			"wire_bytes_per_row": {float64(ph.wireBytes) / float64(ph.rows), "B"},
			"peak_rss_mb":        {rss, "MiB"},
			"setup_s":            {setup.Seconds(), "s"},
		},
	}, nil
}

// sortedNames returns m's keys in order, for stable printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
