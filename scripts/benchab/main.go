// Command benchab turns the runs scripts/bench_ab.sh collected — alternating
// passes of the repository benchmark on a base commit and a change — into the
// paired comparison the ROADMAP's ledger asks for: per workload and
// end-to-end metric the two medians with their quartiles, how many pairs the
// change won, and a verdict against the metric's bound from BENCHMARK.json.
// It prints the table and writes the whole record, raw values included, as
// BENCH_<pr>.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
}

type workloadDef struct {
	Name string `json:"name"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the base median the metric may worsen by
}

// run is one line of the runs file: one pass of one side of one pair.
type run struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Seed     int64  `json:"seed"`
	Side     string `json:"side"`  // "base" or "change"
	First    bool   `json:"first"` // this side ran first in its pair
	Result   struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

type sideStats struct {
	Values []float64 `json:"values"` // one per pair, in pair order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type metricReport struct {
	metricDef
	Base    sideStats `json:"base"`
	Change  sideStats `json:"change"`
	Wins    int       `json:"wins"` // pairs in which the change was better
	Losses  int       `json:"losses"`
	Ties    int       `json:"ties"`
	Delta   float64   `json:"delta"` // (change median − base median) / base median
	Verdict string    `json:"verdict"`
}

type workloadReport struct {
	Name        string         `json:"name"`
	Seeds       []int64        `json:"seeds"`
	BaseFirst   []bool         `json:"base_first"`
	Attempted   map[string]int `json:"attempted"`
	Failed      map[string]int `json:"failed"`
	Metrics     []metricReport `json:"metrics"`
	MoreFailing bool           `json:"more_failing"` // a larger share of ops failed on the change
}

type ledger struct {
	PR        string           `json:"pr"`
	Host      string           `json:"host"`
	CPUs      int              `json:"cpus"`
	Go        string           `json:"go"`
	Base      string           `json:"base"`
	Change    string           `json:"change"`
	Seconds   int              `json:"seconds"`
	Claim     string           `json:"claim,omitempty"` // metric@workload the change claims to improve
	Workloads []workloadReport `json:"workloads"`
}

func main() {
	var (
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark declaration with the metrics' bounds")
		runsPath = flag.String("runs", "", "runs file written by bench_ab.sh, one JSON object per line")
		outPath  = flag.String("out", "", "ledger file to write")
		pr       = flag.String("pr", "", "PR the ledger belongs to")
		base     = flag.String("base", "", "base commit")
		change   = flag.String("change", "", "change commit")
		claim    = flag.String("claim", "", "metric@workload the change claims to improve, reported first in the verdict")
		list     = flag.Bool("list", false, "check -claim against the benchmark, print its workload names and exit")
	)
	flag.Parse()
	if err := mainErr(*specPath, *runsPath, *outPath, *list, ledger{PR: *pr, Base: *base, Change: *change, Claim: *claim}); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func mainErr(specPath, runsPath, outPath string, list bool, l ledger) error {
	var sp spec
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if err := checkClaim(sp, l.Claim); err != nil {
		return err
	}
	if list {
		for _, w := range sp.Workloads {
			fmt.Println(w.Name)
		}
		return nil
	}
	f, err := os.Open(runsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		return fmt.Errorf("%s: %w", runsPath, err)
	}
	l.Host, _ = os.Hostname()
	l.CPUs = runtime.NumCPU()
	l.Go = runtime.Version() // bench_ab.sh builds the passes with the same toolchain it runs this with
	l.Seconds = sp.RunSeconds
	if l.Workloads, err = compare(sp, runs); err != nil {
		return err
	}
	printTable(os.Stdout, l)
	printVerdict(os.Stdout, l)
	out, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}

func readRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var one run
		if err := json.Unmarshal(sc.Bytes(), &one); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		runs = append(runs, one)
	}
	return runs, sc.Err()
}

// compare pairs the runs up per workload, in the spec's workload order, and
// judges every end-to-end metric. A pair missing a side is an error: a ledger
// of unequal samples is not a paired comparison.
func compare(sp spec, runs []run) ([]workloadReport, error) {
	var reports []workloadReport
	for _, w := range sp.Workloads {
		sides := map[string]map[int]run{"base": {}, "change": {}}
		for _, r := range runs {
			if r.Workload == w.Name && sides[r.Side] != nil {
				sides[r.Side][r.Pair] = r
			}
		}
		pairs := len(sides["base"])
		if pairs == 0 && len(sides["change"]) == 0 {
			continue // workload not run
		}
		if len(sides["change"]) != pairs {
			return nil, fmt.Errorf("%s: %d base runs against %d change runs", w.Name, pairs, len(sides["change"]))
		}
		wr := workloadReport{Name: w.Name, Attempted: map[string]int{}, Failed: map[string]int{}}
		for p := 0; p < pairs; p++ {
			b, okB := sides["base"][p]
			c, okC := sides["change"][p]
			if !okB || !okC {
				return nil, fmt.Errorf("%s: pair %d is missing a side", w.Name, p)
			}
			wr.Seeds = append(wr.Seeds, b.Seed)
			wr.BaseFirst = append(wr.BaseFirst, b.First)
			for side, r := range map[string]run{"base": b, "change": c} {
				wr.Attempted[side] += r.Result.Attempted
				wr.Failed[side] += r.Result.Failed
			}
		}
		// Cross-multiplied so that zero attempts cannot divide.
		wr.MoreFailing = wr.Failed["change"]*wr.Attempted["base"] > wr.Failed["base"]*wr.Attempted["change"]
		for _, def := range sp.EndToEnd {
			var bv, cv []float64
			for p := 0; p < pairs; p++ {
				bm, okB := sides["base"][p].Result.Metrics[def.Name]
				cm, okC := sides["change"][p].Result.Metrics[def.Name]
				if !okB || !okC {
					return nil, fmt.Errorf("%s: pair %d has no %s", w.Name, p, def.Name)
				}
				bv, cv = append(bv, bm.Value), append(cv, cm.Value)
			}
			wr.Metrics = append(wr.Metrics, judge(def, bv, cv))
		}
		reports = append(reports, wr)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("no run names a workload of the benchmark")
	}
	return reports, nil
}

// judge applies the rules of the choosing-metrics guide to one metric of one
// workload. "worse": the change's median is worse than the base's by more
// than the bound. "improved": the change won at least nine tenths of the
// pairs (ties count for neither side) and the medians are further apart than
// the base's own inter-quartile distance. "unresolved": neither, and either
// side's runs spread wider than the bound, so "no regression" cannot be said
// either. "ok" otherwise.
func judge(def metricDef, base, change []float64) metricReport {
	m := metricReport{metricDef: def, Base: statsOf(base), Change: statsOf(change)}
	sign := 1.0 // positive: larger is better
	if def.Better == "lower" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (change[i] - base[i]); {
		case d > 0:
			m.Wins++
		case d < 0:
			m.Losses++
		default:
			m.Ties++
		}
	}
	diff := m.Change.Median - m.Base.Median
	if m.Base.Median != 0 {
		m.Delta = diff / m.Base.Median
	}
	spread := func(s sideStats) float64 {
		if s.Median == 0 {
			return 0
		}
		return math.Abs((s.Q3 - s.Q1) / s.Median)
	}
	switch {
	case -sign*m.Delta > def.Bound:
		m.Verdict = "worse"
	case sign*diff > 0 && 10*m.Wins >= 9*len(base) && math.Abs(diff) > m.Base.Q3-m.Base.Q1:
		m.Verdict = "improved"
	case spread(m.Base) > def.Bound || spread(m.Change) > def.Bound:
		m.Verdict = "unresolved"
	default:
		m.Verdict = "ok"
	}
	return m
}

// statsOf returns the median and the quartiles as the benchmark's own
// -compare computes them (Python's statistics.quantiles(vs, n=4)).
func statsOf(vs []float64) sideStats {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	st := sideStats{Values: vs}
	if n == 0 {
		return st
	}
	if n == 1 {
		st.Median, st.Q1, st.Q3 = s[0], s[0], s[0]
		return st
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	st.Q1, st.Median, st.Q3 = quartile(1), quartile(2), quartile(3)
	return st
}

func printTable(out io.Writer, l ledger) {
	fmt.Fprintf(out, "base %s  change %s  %s, %d CPUs, %s, %d s per pass\n", l.Base, l.Change, l.Host, l.CPUs, l.Go, l.Seconds)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tunit\tdelta\tbound\twon\tverdict\t")
	for _, w := range l.Workloads {
		for _, m := range w.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%+.1f%%\t%.1f%%\t%d/%d\t%s\t\n",
				w.Name, m.Name, m.Base.Median, m.Base.Q1, m.Base.Q3, m.Change.Median, m.Change.Q1, m.Change.Q3,
				m.Unit, 100*m.Delta, 100*m.Bound, m.Wins, len(m.Base.Values), m.Verdict)
		}
	}
	tw.Flush()
	for _, w := range l.Workloads {
		note := ""
		if w.MoreFailing {
			note = "  <- a larger share fails on the change"
		}
		fmt.Fprintf(out, "%s: failed ops base %d/%d, change %d/%d%s\n", w.Name,
			w.Failed["base"], w.Attempted["base"], w.Failed["change"], w.Attempted["change"], note)
	}
}

// checkClaim accepts an empty claim or one that names a metric and a
// workload of the benchmark, so a mistyped claim fails before the passes
// run rather than after.
func checkClaim(sp spec, claim string) error {
	if claim == "" {
		return nil
	}
	metric, workload, ok := strings.Cut(claim, "@")
	okMetric := slices.ContainsFunc(sp.EndToEnd, func(d metricDef) bool { return d.Name == metric })
	okWorkload := slices.Contains(sp.Workloads, workloadDef{workload})
	if !ok || !okMetric || !okWorkload {
		return fmt.Errorf("claim %q is not end-to-end-metric@workload of the benchmark", claim)
	}
	return nil
}

// printVerdict writes the paragraph a ledger is summed up by: the claimed
// metric's medians with their quartiles, its delta and its paired wins, then
// every metric judged worse or unresolved, then the failed-op counts.
func printVerdict(out io.Writer, l ledger) {
	var b strings.Builder
	fmt.Fprintf(&b, "Verdict (base %.7s, change %.7s).", l.Base, l.Change)
	if l.Claim != "" {
		metric, workload, _ := strings.Cut(l.Claim, "@")
		claimed := false
		for _, w := range l.Workloads {
			for _, m := range w.Metrics {
				if w.Name != workload || m.Name != metric {
					continue
				}
				claimed = true
				fmt.Fprintf(&b, " Claimed %s on %s: %.4g [%.4g, %.4g] → %.4g [%.4g, %.4g] %s, %+.1f %%, won %d/%d pairs, %s.",
					m.Name, w.Name, m.Base.Median, m.Base.Q1, m.Base.Q3, m.Change.Median, m.Change.Q1, m.Change.Q3,
					m.Unit, 100*m.Delta, m.Wins, len(m.Base.Values), m.Verdict)
			}
		}
		if !claimed {
			fmt.Fprintf(&b, " Claimed %s: not measured.", l.Claim)
		}
	}
	var flagged []string
	for _, w := range l.Workloads {
		for _, m := range w.Metrics {
			if m.Verdict == "worse" || m.Verdict == "unresolved" {
				flagged = append(flagged, fmt.Sprintf("%s %s %s (%+.1f %%, bound %.1f %%, won %d/%d)",
					w.Name, m.Name, m.Verdict, 100*m.Delta, 100*m.Bound, m.Wins, len(m.Base.Values)))
			}
		}
	}
	if len(flagged) == 0 {
		b.WriteString(" No metric is worse or unresolved.")
	} else {
		fmt.Fprintf(&b, " Worse or unresolved: %s.", strings.Join(flagged, "; "))
	}
	var failed []string
	for _, w := range l.Workloads {
		failed = append(failed, fmt.Sprintf("%s %d/%d base, %d/%d change", w.Name,
			w.Failed["base"], w.Attempted["base"], w.Failed["change"], w.Attempted["change"]))
	}
	fmt.Fprintf(&b, " Failed ops: %s.", strings.Join(failed, "; "))
	fmt.Fprintln(out, b.String())
}
