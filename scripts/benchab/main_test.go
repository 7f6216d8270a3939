package main

import (
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
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"pooled-sharded"})
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
