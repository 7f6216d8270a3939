package metrics

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/testutil"
)

// labelKeys is every label key a series may declare ("le" is the one the
// renderer adds to histogram buckets). Selection vectors, ciphertexts and
// row indices are not on it and cannot be smuggled in as a label: the PR-5
// privacy contract, extended to label space.
var labelKeys = []string{"state", "direction", "phase", "backend", "tenant", "key", "kind", "le"}

// TestDeclarations enumerates every series the four families declare and
// holds each to the exposition's naming rules. Label keys are part of the
// declaration, so the check covers families that have no children yet.
func TestDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^privstats_[a-z_]+$`)
	empty := Registry{&ServerMetrics{}, &ClusterMetrics{}, &JobMetrics{}, &StockMetrics{}}
	seen := map[string]bool{}
	var declared []string
	for _, s := range empty.gather(time.Time{}) {
		declared = append(declared, fmt.Sprint(s.name, s.help, s.typ, s.labelKeys))
		if !name.MatchString(s.name) {
			t.Errorf("series name %q does not match %s", s.name, name)
		}
		if seen[s.name] {
			t.Errorf("series %q declared twice", s.name)
		}
		seen[s.name] = true
		if s.help == "" {
			t.Errorf("series %q has no HELP", s.name)
		}
		if strings.HasSuffix(s.name, "_total") && s.typ != "counter" {
			t.Errorf("series %q is a %s; _total names a counter", s.name, s.typ)
		}
		// _seconds names a latency histogram, and every histogram (nanoseconds
		// rendered as seconds) is named so; the uptime gauge is the one
		// grandfathered exception.
		if (strings.HasSuffix(s.name, "_seconds") != (s.typ == "histogram")) && s.name != "privstats_uptime_seconds" {
			t.Errorf("series %q is a %s; _seconds names a histogram and only a histogram", s.name, s.typ)
		}
		for _, k := range s.labelKeys {
			if !slices.Contains(labelKeys, k) {
				t.Errorf("series %q declares label key %q, not on the allow-list %v", s.name, k, labelKeys)
			}
		}
	}

	// Children add samples, never series: the populated fixture declares
	// exactly what the empty registry does.
	var populated []string
	for _, s := range promFixture().registry().gather(time.Time{}) {
		populated = append(populated, fmt.Sprint(s.name, s.help, s.typ, s.labelKeys))
	}
	if !slices.Equal(declared, populated) {
		t.Errorf("declarations depend on the children present:\nempty:     %v\npopulated: %v", declared, populated)
	}
}

// TestEmptyFamiliesRenderHeaders pins the one rule for a labelled series
// with no children yet: HELP and TYPE are there from boot, samples are not —
// for cluster backends as for tenants and stock keys.
func TestEmptyFamiliesRenderHeaders(t *testing.T) {
	empty := Registry{&ClusterMetrics{}, &JobMetrics{}, &StockMetrics{}}
	var b strings.Builder
	if err := empty.WriteText(&b, time.Time{}); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if _, err := testutil.ParseProm(text); err != nil {
		t.Fatalf("header-only exposition does not parse: %v", err)
	}
	for _, s := range empty.gather(time.Time{}) {
		if len(s.labelKeys) == 0 {
			continue
		}
		header := fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
		if !strings.Contains(text, header) {
			t.Errorf("childless series %s has no HELP/TYPE header", s.name)
		}
		if strings.Contains(text, "\n"+s.name+"{") || strings.Contains(text, "\n"+s.name+"_bucket{") {
			t.Errorf("childless series %s rendered a sample", s.name)
		}
	}
}

func TestSampleLabelCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a sample with fewer label values than declared keys did not panic")
		}
	}()
	(&Desc{}).Counter("privstats_x_total", "x", "tenant", "state").Sample(int64(1), "acme")
}

// TestStatsHandlerEncodeError pins the one error rule of every /stats: a
// document that does not encode answers 500, with no partial JSON body.
func TestStatsHandlerEncodeError(t *testing.T) {
	rr := httptest.NewRecorder()
	StatsHandler(func() any { return math.NaN() }).ServeHTTP(rr, httptest.NewRequest("GET", "/stats", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct == "application/json" {
		t.Errorf("error reply is labelled %q", ct)
	}
}

// TestConcurrentScrape renders /metrics and every /stats document in a loop
// while other goroutines create children and bump their counters — the
// interleaving a busy daemon sees on every scrape. Run under -race (make
// race); it also checks that scrapes stay parseable mid-update.
func TestConcurrentScrape(t *testing.T) {
	sm, cm, jm, stm := &ServerMetrics{}, &ClusterMetrics{}, &JobMetrics{}, &StockMetrics{}
	sm.StartClock(time.Now())
	reg := Registry{sm, cm, jm, stm}
	stats := []http.Handler{
		StatsHandler(func() any { return ProxySnapshot{sm.Snapshot(time.Now()), cm.Snapshot()} }),
		StatsHandler(func() any { return jm.Snapshot() }),
		StatsHandler(func() any { return stm.Snapshot() }),
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("child-%d-%d", w, i%8)
				sm.SessionsStarted.Inc()
				sm.ActiveSessions.Inc()
				sm.AbsorbNanos.Observe(int64(i))
				sm.ActiveSessions.Dec()
				b := cm.Backend(name)
				b.Sessions.Inc()
				b.FanoutNanos.Observe(int64(i))
				cm.Epoch.Set(int64(i))
				tn := jm.Tenant(name)
				tn.Submitted.Inc()
				tn.Queued.Inc()
				tn.JobNanos.Observe(int64(i))
				k := stm.Key(name)
				k.DepthZeros.Set(int64(i))
				k.FillNanos.Observe(int64(i))
			}
		}(w)
	}

	for i := 0; i < 20; i++ {
		rr := httptest.NewRecorder()
		reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if _, err := testutil.ParseProm(rr.Body.String()); err != nil {
			t.Errorf("scrape %d does not parse: %v", i, err)
			break
		}
		for _, h := range stats {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", "/stats", nil))
			if rr.Code != http.StatusOK {
				t.Errorf("/stats %d = %d", i, rr.Code)
			}
		}
	}
	close(stop)
	writers.Wait()
}
