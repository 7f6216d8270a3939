package metrics

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"privstats/internal/testutil"
)

type fixture struct {
	sm  *ServerMetrics
	cm  *ClusterMetrics
	jm  *JobMetrics
	stm *StockMetrics
	now time.Time
}

// promFixture builds metrics with fully deterministic contents: fixed
// counters, fixed histogram observations, and a pinned clock. Everything the
// exposition and the /stats documents render is a pure function of this
// fixture, which is what makes the golden files stable.
func promFixture() fixture {
	t0 := time.Unix(1700000000, 0)
	sm := &ServerMetrics{}
	sm.StartClock(t0)
	sm.SessionsStarted.Add(7)
	sm.SessionsCompleted.Add(5)
	sm.SessionsFailed.Add(1)
	sm.SessionsRejected.Add(2)
	sm.ActiveSessions.Inc() // active 1, peak 1
	sm.BytesIn.Add(4096)
	sm.BytesOut.Add(512)
	sm.AcceptErrors.Add(3)
	sm.SessionPanics.Add(1)
	for _, ns := range []int64{1000, 2000, 150000} {
		sm.HelloNanos.Observe(ns)
	}
	sm.AbsorbNanos.Observe(5_000_000)
	sm.FinalizeNanos.Observe(0) // bucket 0: the exactly-zero bucket
	// SessionNanos left empty on purpose: renders as bare +Inf/sum/count.

	cm := &ClusterMetrics{}
	cm.Queries.Add(4)
	cm.Retries.Add(2)
	cm.Failovers.Inc()
	cm.ShardFailures.Inc()
	cm.HedgedDials.Add(3)
	cm.ShardHedges.Add(2)
	cm.ShardHedgeWins.Inc()
	cm.CorruptFrames.Add(5)
	cm.Reshards.Inc()
	cm.Epoch.Set(2)
	cm.CombineNanos.Observe(250_000)
	b1 := cm.Backend("127.0.0.1:9001")
	b1.Sessions.Add(6)
	b1.Errors.Add(2)
	b1.Busy.Inc()
	b1.FanoutNanos.Observe(3_000_000)
	b2 := cm.Backend(`weird"addr\with spaces`)
	b2.Sessions.Inc()

	jm := &JobMetrics{}
	acme := jm.Tenant("acme")
	acme.Submitted.Add(9)
	acme.Admitted.Add(6)
	acme.Rejected.Add(3)
	acme.Completed.Add(5)
	acme.Failed.Inc()
	acme.Queued.Inc() // queued 1, peak 1
	acme.JobNanos.Observe(4_000_000)
	acme.JobNanos.Observe(12_000_000)
	beta := jm.Tenant("beta")
	beta.Submitted.Add(2)
	beta.Admitted.Add(2)
	beta.Completed.Add(2)
	jm.Recovered.Add(4)
	jm.ReplayedBytes.Add(2048)
	jm.TornTail.Inc()
	// beta.JobNanos left empty: renders as bare +Inf/sum/count.

	stm := &StockMetrics{}
	stm.Sessions.Add(3)
	stm.HelloRejects.Inc()
	stm.Snapshots.Add(2)
	stm.SnapshotErrors.Inc()
	cafe := stm.Key("cafe")
	cafe.DepthZeros.Set(100)
	cafe.DepthOnes.Set(8)
	cafe.GeneratedBits.Add(108)
	cafe.ServedBits.Add(60)
	cafe.ServedBatches.Add(4)
	cafe.RefillErrors.Inc()
	cafe.FillNanos.Observe(1_000_000)
	cafe.FillNanos.Observe(5_000_000)
	stm.Key("aaaa000000000000").DepthZeros.Set(40)
	// aaaa…'s FillNanos left empty, and it sorts before "cafe" although it
	// was created second.

	return fixture{sm, cm, jm, stm, t0.Add(90 * time.Second)}
}

func (f fixture) registry() Registry { return Registry{f.sm, f.cm, f.jm, f.stm} }

func renderProm(t *testing.T, f fixture) string {
	t.Helper()
	var b bytes.Buffer
	if err := f.registry().WriteText(&b, f.now); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkGolden compares got with testdata/<name>, rewriting the file first
// when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\nIf intentional: UPDATE_GOLDEN=1 go test ./internal/metrics/ and review the diff.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestPromGolden pins the exact exposition bytes: metric names, types, HELP
// strings, label escaping, bucket bounds. These are a compatibility surface
// for dashboards and alerts — if a rename or format change is intentional,
// regenerate with UPDATE_GOLDEN=1 and review the diff like an API change.
func TestPromGolden(t *testing.T) {
	checkGolden(t, "metrics.prom", renderProm(t, promFixture()))
}

// TestPromRoundTrip re-reads the rendered text through the shared parser and
// checks every value against the atomic counters it came from — the other
// half of the format contract: what we write must be machine-readable and
// numerically faithful.
func TestPromRoundTrip(t *testing.T) {
	f := promFixture()
	sm, cm, jm := f.sm, f.cm, f.jm
	vals, err := testutil.ParseProm(renderProm(t, f))
	if err != nil {
		t.Fatal(err)
	}

	checks := map[string]float64{
		"privstats_uptime_seconds":                                                     90,
		`privstats_sessions_total{state="started"}`:                                    float64(sm.SessionsStarted.Value()),
		`privstats_sessions_total{state="completed"}`:                                  float64(sm.SessionsCompleted.Value()),
		`privstats_sessions_total{state="failed"}`:                                     float64(sm.SessionsFailed.Value()),
		`privstats_sessions_total{state="rejected"}`:                                   float64(sm.SessionsRejected.Value()),
		"privstats_active_sessions":                                                    float64(sm.ActiveSessions.Value()),
		"privstats_active_sessions_peak":                                               float64(sm.ActiveSessions.Max()),
		`privstats_transport_bytes_total{direction="in"}`:                              float64(sm.BytesIn.Value()),
		`privstats_transport_bytes_total{direction="out"}`:                             float64(sm.BytesOut.Value()),
		"privstats_accept_errors_total":                                                float64(sm.AcceptErrors.Value()),
		"privstats_session_panics_total":                                               float64(sm.SessionPanics.Value()),
		"privstats_cluster_queries_total":                                              float64(cm.Queries.Value()),
		"privstats_cluster_retries_total":                                              float64(cm.Retries.Value()),
		"privstats_cluster_failovers_total":                                            float64(cm.Failovers.Value()),
		"privstats_cluster_shard_failures_total":                                       float64(cm.ShardFailures.Value()),
		"privstats_cluster_hedged_dials_total":                                         float64(cm.HedgedDials.Value()),
		"privstats_cluster_shard_hedges_total":                                         float64(cm.ShardHedges.Value()),
		"privstats_cluster_shard_hedge_wins_total":                                     float64(cm.ShardHedgeWins.Value()),
		"privstats_cluster_corrupt_frames_total":                                       float64(cm.CorruptFrames.Value()),
		"privstats_cluster_reshards_total":                                             float64(cm.Reshards.Value()),
		"privstats_cluster_shardmap_epoch":                                             float64(cm.Epoch.Value()),
		`privstats_cluster_backend_sessions_total{backend="127.0.0.1:9001"}`:           6,
		`privstats_cluster_backend_errors_total{backend="127.0.0.1:9001"}`:             2,
		`privstats_cluster_backend_busy_total{backend="127.0.0.1:9001"}`:               1,
		`privstats_cluster_backend_sessions_total{backend="weird\"addr\\with spaces"}`: 1,
		`privstats_jobs_total{tenant="acme",state="submitted"}`:                        9,
		`privstats_jobs_total{tenant="acme",state="admitted"}`:                         6,
		`privstats_jobs_total{tenant="acme",state="rejected"}`:                         3,
		`privstats_jobs_total{tenant="acme",state="completed"}`:                        5,
		`privstats_jobs_total{tenant="acme",state="failed"}`:                           1,
		`privstats_jobs_total{tenant="beta",state="submitted"}`:                        2,
		`privstats_jobs_queued{tenant="acme"}`:                                         1,
		`privstats_jobs_queued_peak{tenant="acme"}`:                                    1,
		`privstats_jobs_queued{tenant="beta"}`:                                         0,
		"privstats_stock_sessions_total":                                               3,
		"privstats_stock_hello_rejects_total":                                          1,
		"privstats_stock_snapshots_total":                                              2,
		"privstats_stock_snapshot_errors_total":                                        1,
		`privstats_stock_depth{key="cafe",kind="zeros"}`:                               100,
		`privstats_stock_depth{key="cafe",kind="ones"}`:                                8,
		`privstats_stock_depth{key="aaaa000000000000",kind="zeros"}`:                   40,
		`privstats_stock_generated_total{key="cafe",kind="bits"}`:                      108,
		`privstats_stock_served_total{key="cafe",kind="bits"}`:                         60,
		`privstats_stock_served_batches_total{key="cafe"}`:                             4,
		`privstats_stock_served_batches_total{key="aaaa000000000000"}`:                 0,
		`privstats_stock_refill_errors_total{key="cafe"}`:                              1,
	}
	for k, want := range checks {
		got, ok := vals[k]
		if !ok {
			t.Errorf("series %q missing from exposition", k)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}

	// Histogram invariants per phase: _count matches the source histogram,
	// _sum is the nanosecond sum in seconds, buckets are cumulative and
	// monotone, and the +Inf bucket equals _count.
	for name, h := range map[string]*Histogram{
		`privstats_phase_seconds@phase="hello"`:    &sm.HelloNanos,
		`privstats_phase_seconds@phase="absorb"`:   &sm.AbsorbNanos,
		`privstats_phase_seconds@phase="finalize"`: &sm.FinalizeNanos,
		`privstats_phase_seconds@phase="session"`:  &sm.SessionNanos,
		`privstats_cluster_combine_seconds@`:       &cm.CombineNanos,
		`privstats_job_seconds@tenant="acme"`:      &jm.Tenant("acme").JobNanos,
		`privstats_job_seconds@tenant="beta"`:      &jm.Tenant("beta").JobNanos,
		`privstats_stock_fill_seconds@key="cafe"`:  &f.stm.Key("cafe").FillNanos,
	} {
		fam, label, _ := strings.Cut(name, "@")
		_, count, sum := h.Buckets()
		sep := ""
		if label != "" {
			sep = ","
		}
		countKey := fam + "_count"
		sumKey := fam + "_sum"
		infKey := fmt.Sprintf("%s_bucket{%sle=\"+Inf\"}", fam, label+sep)
		if label != "" {
			countKey = fam + "_count{" + label + "}"
			sumKey = fam + "_sum{" + label + "}"
		}
		if got := vals[countKey]; got != float64(count) {
			t.Errorf("%s = %v, want %d", countKey, got, count)
		}
		if got := vals[sumKey]; got != float64(sum)/1e9 {
			t.Errorf("%s = %v, want %v", sumKey, got, float64(sum)/1e9)
		}
		if got := vals[infKey]; got != float64(count) {
			t.Errorf("%s = %v, want %d", infKey, got, count)
		}
		// Cumulative monotonicity across the le series.
		type bucket struct {
			le  string
			val float64
		}
		var series []bucket
		prefix := fam + "_bucket{" + label + sep + "le=\""
		for k, v := range vals {
			if strings.HasPrefix(k, prefix) && !strings.Contains(k, "+Inf") {
				series = append(series, bucket{strings.TrimSuffix(strings.TrimPrefix(k, prefix), "\"}"), v})
			}
		}
		sort.Slice(series, func(i, j int) bool { return parseLe(t, series[i].le) < parseLe(t, series[j].le) })
		last := float64(-1)
		for _, bk := range series {
			if bk.val < last {
				t.Errorf("%s buckets not cumulative at le=%s: %v < %v", fam, bk.le, bk.val, last)
			}
			last = bk.val
		}
		if last > float64(count) {
			t.Errorf("%s last finite bucket %v exceeds count %d", fam, last, count)
		}
	}
}

func parseLe(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		t.Fatalf("bad le bound %q: %v", s, err)
	}
	return f
}

// TestExpositionCompositions serves /metrics for every family composition a
// daemon mounts and checks the content type, that the body parses, and which
// families are (and are not) in it.
func TestExpositionCompositions(t *testing.T) {
	f := promFixture()
	const (
		server  = `privstats_sessions_total{state="started"}`
		cluster = "privstats_cluster_queries_total"
		jobs    = `privstats_jobs_total{tenant="acme",state="submitted"}`
		stock   = "privstats_stock_sessions_total"
	)
	for _, tc := range []struct {
		name string
		h    http.Handler
		want []string
	}{
		{"server-only (sumserver)", Registry{f.sm}, []string{server}},
		{"server+cluster (sumproxy)", Registry{f.sm, f.cm}, []string{server, cluster}},
		{"cluster+jobs (sumjobd)", Registry{f.cm, f.jm}, []string{cluster, jobs}},
		{"server+cluster+jobs", Registry{f.sm, f.cm, f.jm}, []string{server, cluster, jobs}},
		{"server+stock (stockd)", Registry{f.sm, f.stm}, []string{server, stock}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			tc.h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
			if ct := rr.Header().Get("Content-Type"); ct != PromContentType {
				t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
			}
			vals, err := testutil.ParseProm(rr.Body.String())
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{server, cluster, jobs, stock} {
				_, got := vals[k]
				if want := slices.Contains(tc.want, k); got != want {
					t.Errorf("series %q present=%v, want %v", k, got, want)
				}
			}
		})
	}
}
