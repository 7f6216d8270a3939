package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// report is the JSON document of one report-mode invocation.
type report struct {
	Host      string           `json:"host"`
	NumCPU    int              `json:"nproc"`
	GoVersion string           `json:"go"`
	Commit    string           `json:"commit"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string    `json:"name"`
	Rows    int       `json:"rows"`
	KeyBits int       `json:"key_bits"`
	Chunk   int       `json:"chunk"`
	Clients int       `json:"clients"`
	Runs    []seedRun `json:"runs"`
}

// seedRun is one seed's two passes, each from a process of its own.
type seedRun struct {
	Seed     int64       `json:"seed"`
	EndToEnd *passResult `json:"end_to_end"`
	PerLayer *passResult `json:"per_layer"`
}

// runReport runs every selected workload reps times, each pass in a fresh
// process (so peak RSS is the pass's own and no cache or GC state crosses
// from one workload to the next), prints every metric by name and writes
// report.json under outDir. It fails if any op failed.
func runReport(selected []workload, seed int64, seconds, reps int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	rep := report{Host: host, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit(), Seed: seed, Seconds: seconds}
	failed := 0
	for _, w := range selected {
		wr := workloadReport{Name: w.name, Rows: w.n, KeyBits: w.keyBits, Chunk: w.chunk, Clients: w.clients}
		for r := 0; r < reps; r++ {
			run := seedRun{Seed: seed + int64(r)}
			for traced, into := range []**passResult{&run.EndToEnd, &run.PerLayer} {
				res, err := childPass(self, w.name, run.Seed, seconds, traced, outDir)
				if err != nil {
					return fmt.Errorf("%s, seed %d, trace %d: %w", w.name, run.Seed, traced, err)
				}
				*into = res
				failed += res.Failed
			}
			wr.Runs = append(wr.Runs, run)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	fmt.Printf("host %s, %d CPUs, %s, commit %s, seed %d, %d s per pass, %d run(s) per workload\n",
		rep.Host, rep.NumCPU, rep.GoVersion, rep.Commit, seed, seconds, reps)
	for _, wr := range rep.Workloads {
		printWorkload(os.Stdout, wr)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(mkdirAll(outDir), "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// childPass runs one pass in a child process and parses the last line of its
// standard output; the child's progress goes to this process's standard error.
func childPass(self, name string, seed int64, seconds, traced int, outDir string) (*passResult, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	res := new(passResult)
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

// commit names the checked-out commit, when the harness runs inside a git
// checkout that has git at hand.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// values collects metric name's value from every run's end-to-end or
// per-layer pass.
func (wr workloadReport) values(name string, perLayer bool) []float64 {
	var vs []float64
	for _, run := range wr.Runs {
		pass := run.EndToEnd
		if perLayer {
			pass = run.PerLayer
		}
		if pass == nil {
			continue
		}
		if m, ok := pass.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func printWorkload(out io.Writer, wr workloadReport) {
	attempted, failed := 0, 0
	for _, run := range wr.Runs {
		attempted += run.EndToEnd.Attempted
		failed += run.EndToEnd.Failed
	}
	fmt.Fprintf(out, "\n%s: n=%d, %d-bit key, chunk %d, %d client(s); %d ops attempted, %d failed (fail_ratio %g)\n",
		wr.Name, wr.Rows, wr.KeyBits, wr.Chunk, wr.Clients, attempted, failed, float64(failed)/float64(attempted))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tmedian\tunit\tspread\t")
	for _, group := range []struct {
		defs     []metricDef
		perLayer bool
	}{{endToEnd, false}, {perLayer, true}} {
		for _, def := range group.defs {
			vs := wr.values(def.name, group.perLayer)
			if len(vs) == 0 {
				fmt.Fprintf(tw, "  %s\tmissing\t\t\t\n", def.name)
				continue
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t\n", def.name, medianOf(vs), def.unit, spreadText(vs))
		}
	}
	tw.Flush()
}

func spreadText(vs []float64) string {
	spread, ok := spreadOf(vs)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*spread)
}

func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadOf is the distance between the first and third quartile as a share of
// the median, the quartiles as Python's statistics.quantiles(vs, n=4) gives
// them. It needs two values and a median that is not zero.
func spreadOf(vs []float64) (float64, bool) {
	n := len(vs)
	med := medianOf(vs)
	if n < 2 || med == 0 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread := (quartile(3) - quartile(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread, true
}

// compareReports applies each end-to-end metric's own bound, per workload, to
// the medians of two reports: one row per workload and metric, "worse" when
// the new median is worse than the old by more than the bound, "unresolved"
// when it is not but either report's own runs spread wider than the bound, so
// that the comparison cannot tell, and "ok" otherwise. Any "worse" is an
// error.
func compareReports(out io.Writer, oldPath, newPath string) error {
	load := func(path string) (map[string]workloadReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byName := make(map[string]workloadReport)
		for _, wr := range rep.Workloads {
			byName[wr.Name] = wr
		}
		return byName, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tchange\tbound\tspread old/new\tverdict\t")
	worse := 0
	for _, w := range workloads {
		o, n := oldRep[w.name], newRep[w.name]
		for _, def := range endToEnd {
			ov, nv := o.values(def.name, false), n.values(def.name, false)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := medianOf(ov), medianOf(nv)
			change := (nm - om) / om
			worsening := change
			if def.better == "higher" {
				worsening = -change
			}
			oldSpread, _ := spreadOf(ov)
			newSpread, _ := spreadOf(nv)
			verdict := "ok"
			switch {
			case worsening > def.bound:
				verdict = "worse"
				worse++
			case oldSpread > def.bound || newSpread > def.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.1f%%\t%s / %s\t%s\t\n",
				w.name, def.name, om, nm, def.unit, 100*change, 100*def.bound, spreadText(ov), spreadText(nv), verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
