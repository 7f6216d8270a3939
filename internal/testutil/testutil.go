// Package testutil holds test helpers shared across packages: the
// goroutine-leak guard every lifecycle test should open with, a poll-until
// helper for state that settles after a reply, and a minimal Prometheus
// text-exposition parser for round-tripping /metrics output.
// Production code must not import this package.
package testutil

import (
	"bufio"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// GuardGoroutines snapshots the goroutine count and, after every cleanup
// registered later (servers, listeners) has run, polls until the count
// settles back to the baseline. Register it FIRST: t.Cleanup is LIFO, so
// the guard's cleanup runs last, after the resources it is guarding have
// been torn down.
func GuardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before+2 { // scheduler/netpoll jitter tolerance
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after settle window\n%s", before, now, buf[:n])
	})
}

// Eventually polls cond until it holds or d elapses, failing the test on
// timeout. Server runtimes count a session's outcome before its last reply
// frame, but release its slot and record its timings and bytes after the
// reply is flushed, so a test that reads those the instant its client has
// the reply must wait for the event, not assume it.
func Eventually(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ParseProm parses Prometheus 0.0.4 text exposition into a map keyed by the
// full series identity — `name` or `name{label="v",...}` exactly as rendered.
// Comment and blank lines are skipped; any other malformed line is an error,
// so a format regression fails the round-trip test rather than vanishing.
func ParseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the series identity is
		// everything before it. Label VALUES may contain spaces, so split
		// from the right.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("line %d: no value separator: %q", ln, line)
		}
		key, val := line[:i], line[i+1:]
		if key == "" {
			return nil, fmt.Errorf("line %d: empty series name: %q", ln, line)
		}
		if strings.Contains(key, "{") != strings.HasSuffix(key, "}") {
			return nil, fmt.Errorf("line %d: unbalanced label braces: %q", ln, line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", ln, val, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", ln, key)
		}
		out[key] = f
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
