package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestStatsOfMatchesHarnessQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	st := statsOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if st.Q1 != 2.75 || st.Median != 5.5 || st.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, %v; want 2.75, 5.5, 8.25", st.Q1, st.Median, st.Q3)
	}
	if st.Values[0] != 10 {
		t.Error("statsOf reordered the per-pair values")
	}
	if one := statsOf([]float64{4}); one.Q1 != 4 || one.Median != 4 || one.Q3 != 4 {
		t.Errorf("single value: %+v", one)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "cpu_ms_per_krow", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "rows_per_s", Better: "higher", Bound: 0.25}
	steady := []float64{5.0, 5.1, 4.9, 5.0, 5.2, 4.8, 5.0, 5.1, 4.9, 5.0}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{3, 7, 4, 6, 5, 2, 8, 5, 3, 7}
	onePairLost := scaled(0.8)
	onePairLost[0] = 5.5
	twoPairsLost := scaled(0.8)
	twoPairsLost[0], twoPairsLost[1] = 5.5, 5.5
	for _, c := range []struct {
		name         string
		def          metricDef
		base, change []float64
		verdict      string
		wins         int
	}{
		{"20% less of a lower-is-better metric in every pair", lower, steady, scaled(0.8), "improved", 10},
		{"nine of ten pairs is still a win", lower, steady, onePairLost, "improved", 9},
		{"eight of ten is not", lower, steady, twoPairsLost, "ok", 8},
		{"a gain inside the base's own quartiles is not claimed", lower, steady, scaled(0.99), "ok", 10},
		{"30% more of a lower-is-better metric breaks a 25% bound", lower, steady, scaled(1.3), "worse", 0},
		{"20% more stays inside it", lower, steady, scaled(1.2), "ok", 0},
		{"higher-is-better: 30% less is worse", higher, steady, scaled(0.7), "worse", 0},
		{"higher-is-better: 20% more is a gain", higher, steady, scaled(1.2), "improved", 10},
		{"identical runs tie", lower, steady, steady, "ok", 0},
		{"runs spread wider than the bound resolve nothing", lower, noisy, noisy, "unresolved", 0},
	} {
		got := judge(c.def, c.base, c.change)
		if got.Verdict != c.verdict || got.Wins != c.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d", c.name, got.Verdict, got.Wins, c.verdict, c.wins)
		}
	}
}

func TestCompareRejectsUnpairedRuns(t *testing.T) {
	var sp spec
	sp.Workloads = append(sp.Workloads, workloadDef{"pooled-sharded"})
	sp.EndToEnd = []metricDef{{Name: "cpu_ms_per_krow", Better: "lower", Bound: 0.25}}
	const line = `{"workload":"pooled-sharded","pair":%PAIR%,"seed":7,"side":"%SIDE%","first":true,"result":{"attempted":9,"failed":%FAILED%,"metrics":{"cpu_ms_per_krow":{"value":5,"unit":"ms"}}}}`
	mk := func(pair, side, failed string) string {
		return strings.NewReplacer("%PAIR%", pair, "%SIDE%", side, "%FAILED%", failed).Replace(line) + "\n"
	}
	runs, err := readRuns(strings.NewReader(mk("0", "base", "0") + mk("0", "change", "1") + mk("1", "base", "0")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compare(sp, runs); err == nil {
		t.Error("a pair without its change side was accepted")
	}
	reports, err := compare(sp, runs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if w := reports[0]; !w.MoreFailing || w.Failed["change"] != 1 || w.Attempted["base"] != 9 || len(w.Metrics) != 1 {
		t.Errorf("report = %+v", w)
	}
}

// TestPrintVerdict: the paragraph leads with the claimed metric's medians,
// quartiles, delta and paired wins, names every worse metric and no ok one,
// and ends with the failed-op counts.
func TestPrintVerdict(t *testing.T) {
	latency := metricDef{Name: "latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25}
	cpu := metricDef{Name: "cpu_ms_per_krow", Unit: "ms", Better: "lower", Bound: 0.25}
	base := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	l := ledger{
		Base: "0123456789abcdef", Change: "fedcba9876543210", Claim: "latency_p50_s@online-direct",
		Workloads: []workloadReport{
			{
				Name:      "online-direct",
				Attempted: map[string]int{"base": 80, "change": 130},
				Failed:    map[string]int{"base": 0, "change": 0},
				Metrics:   []metricReport{judge(latency, base, scaled(0.6)), judge(cpu, base, scaled(1.3))},
			},
			{
				Name:      "pooled-sharded",
				Attempted: map[string]int{"base": 900, "change": 910},
				Failed:    map[string]int{"base": 1, "change": 0},
				Metrics:   []metricReport{judge(cpu, base, base)},
			},
		},
	}
	var out strings.Builder
	printVerdict(&out, l)
	got := out.String()
	for _, want := range []string{
		"Verdict (base 0123456, change fedcba9).",
		"Claimed latency_p50_s on online-direct: 10 [10, 10] → 6 [6, 6] s, -40.0 %, won 10/10 pairs, improved.",
		"Worse or unresolved: online-direct cpu_ms_per_krow worse (+30.0 %, bound 25.0 %, won 0/10).",
		"Failed ops: online-direct 0/80 base, 0/130 change; pooled-sharded 1/900 base, 0/910 change.",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("verdict lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "pooled-sharded cpu_ms_per_krow") {
		t.Errorf("an ok metric is listed:\n%s", got)
	}
	if strings.Count(got, "\n") != 1 {
		t.Errorf("verdict is not one paragraph:\n%s", got)
	}

	var sp spec
	sp.Workloads = []workloadDef{{"online-direct"}}
	sp.EndToEnd = []metricDef{latency}
	for claim, ok := range map[string]bool{"": true, "latency_p50_s@online-direct": true,
		"latency_p50_s": false, "latency_p50_s@jobs-mixed": false, "rows_per_s@online-direct": false} {
		if err := checkClaim(sp, claim); (err == nil) != ok {
			t.Errorf("checkClaim(%q) = %v", claim, err)
		}
	}
}

// TestComparePerLayer: traced passes pair up on their own, every per-layer
// metric both sides reported is judged in its declared direction, one that
// moved in every pair is reported and named in the verdict, and a flat one
// is reported but not named.
func TestComparePerLayer(t *testing.T) {
	var sp spec
	sp.Workloads = []workloadDef{{"small-sessions"}}
	sp.EndToEnd = []metricDef{{Name: "cpu_ms_per_krow", Better: "lower", Bound: 0.25}}
	sp.PerLayer = []metricDef{
		{Name: "cluster.combine_us", Unit: "us", Better: "lower"},
		{Name: "paillier.rerandomize_us", Unit: "us", Better: "lower"},
		{Name: "stock.refill_items_per_s", Unit: "1/s", Better: "higher"}, // no traced pass reports it
	}
	var lines strings.Builder
	for p := 0; p < 10; p++ {
		for _, side := range []string{"base", "change"} {
			combine := 300 + float64(p)
			if side == "change" {
				combine = 3 + float64(p)/10
			}
			fmt.Fprintf(&lines, `{"workload":"small-sessions","pair":%d,"seed":%d,"side":%q,"first":true,"trace":0,"result":{"attempted":9,"failed":0,"metrics":{"cpu_ms_per_krow":{"value":10}}}}`+"\n", p, p, side)
			fmt.Fprintf(&lines, `{"workload":"small-sessions","pair":%d,"seed":%d,"side":%q,"first":true,"trace":1,"result":{"attempted":5,"failed":0,"metrics":{"cluster.combine_us":{"value":%g},"paillier.rerandomize_us":{"value":%g}}}}`+"\n",
				p, p, side, combine, 250+float64(p%3))
		}
	}
	runs, err := readRuns(strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := compare(sp, runs)
	if err != nil {
		t.Fatal(err)
	}
	w := reports[0]
	if w.Attempted["base"] != 90 || len(w.Metrics) != 1 || w.Metrics[0].Verdict != "ok" {
		t.Errorf("end-to-end report took traced passes in: %+v", w)
	}
	if len(w.PerLayer) != 2 {
		t.Fatalf("per-layer rows = %+v, want combine and rerandomize only", w.PerLayer)
	}
	if m := w.PerLayer[0]; m.Name != "cluster.combine_us" || m.Verdict != "improved" || m.Wins != 10 || m.Change.Median >= 10 {
		t.Errorf("moved row = %+v", m)
	}
	if m := w.PerLayer[1]; m.Name != "paillier.rerandomize_us" || m.Verdict != "flat" || m.Ties != 10 {
		t.Errorf("flat row = %+v", m)
	}
	if worse := judgeLayer(sp.PerLayer[0], w.PerLayer[0].Change.Values, w.PerLayer[0].Base.Values); worse.Verdict != "worse" || worse.Losses != 10 {
		t.Errorf("the reverse move = %q with %d losses, want worse with 10", worse.Verdict, worse.Losses)
	}

	var out strings.Builder
	printVerdict(&out, ledger{Workloads: reports})
	if got := out.String(); !strings.Contains(got, "Per-layer moves: small-sessions cluster.combine_us improved (-98.9 %, won 10/10)") ||
		strings.Contains(got, "rerandomize_us") {
		t.Errorf("verdict does not name exactly the moved row:\n%s", got)
	}

	// A traced pass without its partner is as unpaired as an end-to-end one.
	if _, err := compare(sp, runs[:len(runs)-1]); err == nil {
		t.Error("a traced pair without its change side was accepted")
	}
}
