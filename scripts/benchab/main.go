// Command benchab turns the runs scripts/bench_ab.sh collected — alternating
// passes of the repository benchmark on a base commit and a change — into the
// paired comparison the ROADMAP's ledger asks for: per workload and
// end-to-end metric the two medians with their quartiles, how many pairs the
// change won, and a verdict against the metric's bound from BENCHMARK.json.
// When the runs include traced passes, every per-layer metric both sides
// reported gets the same medians, quartiles and paired wins, judged in the
// direction BENCHMARK.json gives it. It prints the tables and writes the
// whole record, raw values included, as BENCH_<pr>.json.
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
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // share of the base median the metric may worsen by; per-layer metrics have none
}

// run is one line of the runs file: one pass of one side of one pair.
type run struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Seed     int64  `json:"seed"`
	Side     string `json:"side"`  // "base" or "change"
	First    bool   `json:"first"` // this side ran first in its pair
	Trace    int    `json:"trace"` // 1: a traced pass, reporting per-layer metrics
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
	PerLayer    []metricReport `json:"per_layer,omitempty"`
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

// passes holds one workload's passes of one kind, by side and pair.
type passes map[string]map[int]run

// pairUp collects the workload's passes with the given trace setting and
// returns them with their pair count. A pair missing a side is an error: a
// ledger of unequal samples is not a paired comparison.
func pairUp(runs []run, workload string, trace int) (passes, int, error) {
	s := passes{"base": {}, "change": {}}
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace && s[r.Side] != nil {
			s[r.Side][r.Pair] = r
		}
	}
	pairs := len(s["base"])
	if len(s["change"]) != pairs {
		return nil, 0, fmt.Errorf("%s: %d base runs against %d change runs", workload, pairs, len(s["change"]))
	}
	for p := 0; p < pairs; p++ {
		_, okB := s["base"][p]
		_, okC := s["change"][p]
		if !okB || !okC {
			return nil, 0, fmt.Errorf("%s: pair %d is missing a side", workload, p)
		}
	}
	return s, pairs, nil
}

// values returns the metric's value in every pair on each side; ok is false
// when some pass did not report it.
func (s passes) values(name string, pairs int) (base, change []float64, ok bool) {
	for p := 0; p < pairs; p++ {
		bm, okB := s["base"][p].Result.Metrics[name]
		cm, okC := s["change"][p].Result.Metrics[name]
		if !okB || !okC {
			return nil, nil, false
		}
		base, change = append(base, bm.Value), append(change, cm.Value)
	}
	return base, change, true
}

// compare pairs the runs up per workload, in the spec's workload order, and
// judges every end-to-end metric, then every per-layer metric that all the
// traced passes of the workload reported.
func compare(sp spec, runs []run) ([]workloadReport, error) {
	var reports []workloadReport
	for _, w := range sp.Workloads {
		sides, pairs, err := pairUp(runs, w.Name, 0)
		if err != nil {
			return nil, err
		}
		if pairs == 0 {
			continue // workload not run
		}
		wr := workloadReport{Name: w.Name, Attempted: map[string]int{}, Failed: map[string]int{}}
		for p := 0; p < pairs; p++ {
			b, c := sides["base"][p], sides["change"][p]
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
			bv, cv, ok := sides.values(def.Name, pairs)
			if !ok {
				return nil, fmt.Errorf("%s: a pass has no %s", w.Name, def.Name)
			}
			wr.Metrics = append(wr.Metrics, judge(def, bv, cv))
		}
		traced, tracedPairs, err := pairUp(runs, w.Name, 1)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		for _, def := range sp.PerLayer {
			if bv, cv, ok := traced.values(def.Name, tracedPairs); ok && tracedPairs > 0 {
				wr.PerLayer = append(wr.PerLayer, judgeLayer(def, bv, cv))
			}
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
	m := paired(def, base, change)
	spread := func(s sideStats) float64 {
		if s.Median == 0 {
			return 0
		}
		return math.Abs((s.Q3 - s.Q1) / s.Median)
	}
	switch {
	case -m.sign()*m.Delta > def.Bound:
		m.Verdict = "worse"
	case m.better() > 0 && m.moved(m.Wins):
		m.Verdict = "improved"
	case spread(m.Base) > def.Bound || spread(m.Change) > def.Bound:
		m.Verdict = "unresolved"
	default:
		m.Verdict = "ok"
	}
	return m
}

// judgeLayer holds a per-layer metric, which has no bound, to the paired
// rule in both directions: "improved" or "worse" when the change won or lost
// at least nine tenths of the pairs and the medians are further apart than
// the base's inter-quartile distance, "flat" otherwise.
func judgeLayer(def metricDef, base, change []float64) metricReport {
	m := paired(def, base, change)
	switch {
	case m.better() > 0 && m.moved(m.Wins):
		m.Verdict = "improved"
	case m.better() < 0 && m.moved(m.Losses):
		m.Verdict = "worse"
	default:
		m.Verdict = "flat"
	}
	return m
}

// paired fills in both sides' statistics, the paired wins, losses and ties
// in the metric's direction, and the relative delta of the medians.
func paired(def metricDef, base, change []float64) metricReport {
	m := metricReport{metricDef: def, Base: statsOf(base), Change: statsOf(change)}
	for i := range base {
		switch d := m.sign() * (change[i] - base[i]); {
		case d > 0:
			m.Wins++
		case d < 0:
			m.Losses++
		default:
			m.Ties++
		}
	}
	if m.Base.Median != 0 {
		m.Delta = (m.Change.Median - m.Base.Median) / m.Base.Median
	}
	return m
}

// sign is +1 when larger is better, −1 when smaller is.
func (m metricReport) sign() float64 {
	if m.Better == "lower" {
		return -1
	}
	return 1
}

// better is how much better the change's median is, in the metric's units:
// negative when it is worse.
func (m metricReport) better() float64 { return m.sign() * (m.Change.Median - m.Base.Median) }

// moved reports whether the medians moved by more than the base's own
// inter-quartile distance, with the change on one side of the base in at
// least nine tenths of the pairs (ties count for neither side).
func (m metricReport) moved(pairsThatWay int) bool {
	return 10*pairsThatWay >= 9*len(m.Base.Values) && math.Abs(m.Change.Median-m.Base.Median) > m.Base.Q3-m.Base.Q1
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
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	header := false
	for _, w := range l.Workloads {
		for _, m := range w.PerLayer {
			if !header {
				fmt.Fprintln(tw, "workload\tper-layer metric\tbase median [q1, q3]\tchange median [q1, q3]\tunit\tdelta\twon\tverdict\t")
				header = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%+.1f%%\t%d/%d\t%s\t\n",
				w.Name, m.Name, m.Base.Median, m.Base.Q1, m.Base.Q3, m.Change.Median, m.Change.Q1, m.Change.Q3,
				m.Unit, 100*m.Delta, m.Wins, len(m.Base.Values), m.Verdict)
		}
	}
	tw.Flush()
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
// every metric judged worse or unresolved, every per-layer metric that moved,
// then the failed-op counts.
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
	var moved []string
	for _, w := range l.Workloads {
		for _, m := range w.PerLayer {
			if m.Verdict != "flat" {
				moved = append(moved, fmt.Sprintf("%s %s %s (%+.1f %%, won %d/%d)",
					w.Name, m.Name, m.Verdict, 100*m.Delta, m.Wins, len(m.Base.Values)))
			}
		}
	}
	if len(moved) > 0 {
		fmt.Fprintf(&b, " Per-layer moves: %s.", strings.Join(moved, "; "))
	}
	var failed []string
	for _, w := range l.Workloads {
		failed = append(failed, fmt.Sprintf("%s %d/%d base, %d/%d change", w.Name,
			w.Failed["base"], w.Attempted["base"], w.Failed["change"], w.Attempted["change"]))
	}
	fmt.Fprintf(&b, " Failed ops: %s.", strings.Join(failed, "; "))
	fmt.Fprintln(out, b.String())
}
