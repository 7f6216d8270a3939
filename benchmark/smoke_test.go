package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// toy shrinks a workload to smoke-test size; everything else about it, and
// so every code path of the harness, stays.
func toy(w workload) workload {
	w.n = 64
	if w.chunk > 0 {
		w.chunk = 16
	}
	return w
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the harness's own
// tables: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	defs := func(ms []benchmarkMetric) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{m.Name, m.Unit, m.Better, m.Bound}
		}
		return out
	}
	if got := defs(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n harness        %v", got, endToEnd)
	}
	if got := defs(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n harness        %v", got, perLayer)
	}
}

// checkPass asserts that a pass emitted exactly the metrics of defs, each
// once (a map cannot hold a name twice), finite and with its unit, and that
// no op failed.
func checkPass(t *testing.T, res *passResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, def := range defs {
		m, ok := res.Metrics[def.name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", def.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v", def.name, m.Value)
		case m.Unit != def.unit:
			t.Errorf("%s: unit %q, want %q", def.name, m.Unit, def.unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d: %v", len(res.Metrics), len(defs), sortedNames(res.Metrics))
	}
}

// TestSmoke runs both passes of all four workloads at toy size.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			res, err := measuredPass(ctx, w, defaultSeed, time.Second, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkPass(t, res, endToEnd)
			for _, def := range endToEnd {
				if res.Metrics[def.name].Value <= 0 {
					t.Errorf("%s = %v, want positive", def.name, res.Metrics[def.name].Value)
				}
			}

			out := t.TempDir()
			res, err = tracedPass(ctx, w, defaultSeed, time.Second/2, t.TempDir(), out)
			if err != nil {
				t.Fatal(err)
			}
			checkPass(t, res, perLayer)
			var spans []span
			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("span file: %d spans, %v", len(spans), err)
			}
		})
	}
}

// TestSameSeedSameInputs: the seed fixes the table, every selection and the
// job mix, and with them the bytes a query puts on the wire.
func TestSameSeedSameInputs(t *testing.T) {
	w := toy(workloads[0])
	var tables [2][]uint32
	var selections [2][][]int
	var wire [2]float64
	for i := range tables {
		st, err := setUp(w, 7, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = st.table.Values()
		c := st.newClient(7, 0, false)
		for q := 0; q < 3; q++ {
			sel, err := c.selection()
			if err != nil {
				t.Fatal(err)
			}
			selections[i] = append(selections[i], sel.Indices())
		}
		ph, err := runPhase(context.Background(), st, st.newClients(7, false), 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.shutDown(); err != nil {
			t.Fatal(err)
		}
		wire[i] = float64(ph.wireBytes) / float64(ph.rows)
	}
	if !reflect.DeepEqual(tables[0], tables[1]) {
		t.Error("same seed, different tables")
	}
	if !reflect.DeepEqual(selections[0], selections[1]) {
		t.Error("same seed, different selections")
	}
	if wire[0] != wire[1] || wire[0] == 0 {
		t.Errorf("wire bytes per row %v and %v", wire[0], wire[1])
	}
	other, err := setUp(w, 8, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer other.shutDown()
	if reflect.DeepEqual(other.table.Values(), tables[0]) {
		t.Error("different seeds, same table")
	}
}

// TestCompareVerdicts feeds -compare two synthetic reports: a latency 30 %
// worse is "worse" and an error, runs that spread wider than the bound are
// "unresolved", and a report compared with itself is all "ok".
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, latencies, rates []float64) string {
		wr := workloadReport{Name: workloads[0].name}
		for i := range latencies {
			wr.Runs = append(wr.Runs, seedRun{EndToEnd: &passResult{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"latency_p50_s": {latencies[i], "s"},
				"rows_per_s":    {rates[i], "rows/s"},
			}}})
		}
		data, err := json.Marshal(report{Workloads: []workloadReport{wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100}
	base := write("base.json", []float64{1, 1.01, 0.99, 1}, steady)
	slower := write("slower.json", []float64{1.3, 1.31, 1.29, 1.3}, steady)
	noisy := write("noisy.json", []float64{1, 1.01, 0.99, 1}, []float64{60, 100, 140, 100})

	var out bytes.Buffer
	if err := compareReports(&out, base, base); err != nil {
		t.Errorf("a report against itself: %v\n%s", err, out.String())
	}
	if bytes.Contains(out.Bytes(), []byte("worse")) || bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("a report against itself:\n%s", out.String())
	}
	out.Reset()
	if err := compareReports(&out, base, slower); err == nil || !bytes.Contains(out.Bytes(), []byte("worse")) {
		t.Errorf("30%% slower: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareReports(&out, base, noisy); err != nil || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("noisy runs: err %v\n%s", err, out.String())
	}
}
