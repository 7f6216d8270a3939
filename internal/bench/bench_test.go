package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"privstats/internal/netsim"
	"privstats/internal/selectedsum"
)

// testConfig keeps the in-test experiments small and fast: tiny keys, tiny
// sweep. Correctness of every run is still verified against the cleartext
// oracle inside the harness itself.
func testConfig() Config {
	return Config{
		KeyBits:        128,
		Sizes:          []int{50, 120},
		SelectFraction: 0.5,
		ChunkSize:      16,
		Clients:        3,
		Seed:           1,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{KeyBits: 16, Sizes: []int{10}, SelectFraction: 0.5, ChunkSize: 1, Clients: 1},
		{KeyBits: 128, Sizes: nil, SelectFraction: 0.5, ChunkSize: 1, Clients: 1},
		{KeyBits: 128, Sizes: []int{0}, SelectFraction: 0.5, ChunkSize: 1, Clients: 1},
		{KeyBits: 128, Sizes: []int{10}, SelectFraction: 0, ChunkSize: 1, Clients: 1},
		{KeyBits: 128, Sizes: []int{10}, SelectFraction: 1.5, ChunkSize: 1, Clients: 1},
		{KeyBits: 128, Sizes: []int{10}, SelectFraction: 0.5, ChunkSize: 0, Clients: 1},
		{KeyBits: 128, Sizes: []int{10}, SelectFraction: 0.5, ChunkSize: 1, Clients: 0},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := testConfig().validate(); err != nil {
		t.Errorf("test config invalid: %v", err)
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestFig2Shape(t *testing.T) {
	// The linearity check compares two wall-clock encryptions. At a few ms
	// each (400 and 960 rows) a neighbouring test binary's load (make flake
	// runs two on two cores) stretched one of them fivefold and the ratio
	// read 14 or 0.4, while the per-row cost of a first size and a later one
	// agree on a quiet host. So the compared sizes encrypt for ≥ 10 ms each,
	// after a first size that warms the key's randomizer batch and the heap.
	cfg := testConfig()
	cfg.Sizes = []int{400, 2500, 6000}
	rows, err := cfg.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: client encryption dominates on a LAN.
		if r.ClientEncrypt <= r.Communication {
			t.Errorf("n=%d: encrypt %v should dominate comm %v on LAN", r.N, r.ClientEncrypt, r.Communication)
		}
		if r.ClientEncrypt <= r.ClientDecrypt {
			t.Errorf("n=%d: encrypt %v should dwarf decrypt %v", r.N, r.ClientEncrypt, r.ClientDecrypt)
		}
		if r.Total != r.ClientEncrypt+r.ServerCompute+r.Communication+r.ClientDecrypt {
			t.Errorf("n=%d: total is not the component sum for the sequential protocol", r.N)
		}
	}
	// Linearity: doubling n should scale client time roughly linearly
	// (very loose bounds; timing noise on small inputs is large).
	ratio := float64(rows[2].ClientEncrypt) / float64(rows[1].ClientEncrypt)
	sizeRatio := float64(rows[2].N) / float64(rows[1].N)
	if ratio < sizeRatio/4 || ratio > sizeRatio*4 {
		t.Errorf("client encrypt scaling %.2f far from size ratio %.2f", ratio, sizeRatio)
	}
}

func TestFig3ModemCommDominatesLANComm(t *testing.T) {
	cfg := testConfig()
	lan, err := cfg.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	modem, err := cfg.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for i := range lan {
		if modem[i].Communication <= lan[i].Communication*100 {
			t.Errorf("n=%d: modem comm %v should be orders of magnitude above LAN %v",
				lan[i].N, modem[i].Communication, lan[i].Communication)
		}
	}
}

// TestFig4BatchingReducesTotal pins what Figure 4 shows — batching lets
// encryption, transfer and folding overlap — without comparing two wall
// clocks. The plain and the batched run are measured separately, and at test
// size a scheduler hiccup in either flips their order; what cannot flip is
// the batched run's own virtual clock (its pipeline makespan against the same
// measured stages laid end to end) and the counted work (how many chunks were
// in flight, and that batching changed nothing but the framing).
func TestFig4BatchingReducesTotal(t *testing.T) {
	c := testConfig()
	sk, _, err := c.newKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := selectedsum.Run(sk, table, sel, c.fig4Options(false))
		if err != nil {
			t.Fatal(err)
		}
		batched, err := selectedsum.Run(sk, table, sel, c.fig4Options(true))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Sum.Cmp(batched.Sum) != 0 {
			t.Fatalf("n=%d: batched sum %v, plain sum %v", n, batched.Sum, plain.Sum)
		}
		if want := (n + c.ChunkSize - 1) / c.ChunkSize; plain.Chunks != 1 || batched.Chunks != want {
			t.Errorf("n=%d: %d plain and %d batched chunks, want 1 and %d", n, plain.Chunks, batched.Chunks, want)
		}
		if got, want := plain.Timings.Total, plain.Timings.Sum(); got != want {
			t.Errorf("n=%d: the plain run overlaps nothing, yet its total %v is not the sum of its stages %v", n, got, want)
		}
		if got, limit := batched.Timings.Total, batched.Timings.Sum(); got >= limit {
			t.Errorf("n=%d: batched makespan %v does not beat the same stages end to end (%v): nothing overlapped", n, got, limit)
		}
		// Every ciphertext still crosses once; batching pays only one more
		// frame and chunk header per extra chunk, and nothing downstream.
		extra := batched.BytesUp - plain.BytesUp
		if per := extra / int64(batched.Chunks-1); extra <= 0 || extra%int64(batched.Chunks-1) != 0 || per > 64 {
			t.Errorf("n=%d: batching moved %d more bytes up over %d extra chunks, want a small fixed header each", n, extra, batched.Chunks-1)
		}
		if plain.BytesDown != batched.BytesDown {
			t.Errorf("n=%d: reply is %d bytes batched, %d plain", n, batched.BytesDown, plain.BytesDown)
		}
	}
	rows, err := c.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(c.Sizes) {
		t.Fatalf("Fig4 returned %d rows for %d sizes", len(rows), len(c.Sizes))
	}
	for i, r := range rows {
		if r.N != c.Sizes[i] || r.Baseline <= 0 || r.Variant <= 0 {
			t.Errorf("Fig4 row %d = %+v", i, r)
		}
	}
}

func TestFig5PreprocessingShiftsBottleneck(t *testing.T) {
	// Each component is a fraction of a millisecond here, and a preemption on
	// a busy two-core host stalls one timed section by milliseconds: compare
	// each component's fastest of three runs.
	var rows []ComponentRow
	for run := 0; run < 3; run++ {
		got, err := testConfig().Fig5()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			rows = got
			continue
		}
		for i, r := range got {
			rows[i].ServerCompute = min(rows[i].ServerCompute, r.ServerCompute)
			rows[i].ClientEncrypt = min(rows[i].ClientEncrypt, r.ClientEncrypt)
		}
	}
	for _, r := range rows {
		// After preprocessing the client's online time collapses; the
		// server becomes the dominant compute component (paper §3.3).
		if r.ServerCompute <= r.ClientEncrypt {
			t.Errorf("n=%d: server %v should dominate preprocessed client %v", r.N, r.ServerCompute, r.ClientEncrypt)
		}
		if r.Preprocess <= 0 {
			t.Errorf("n=%d: preprocessing time unrecorded", r.N)
		}
	}
}

func TestFig6ModemCommDominates(t *testing.T) {
	rows, err := testConfig().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper §3.3 / Figure 6: over the modem, communication dominates
		// once encryption is preprocessed.
		if r.Communication <= r.ClientEncrypt+r.ServerCompute+r.ClientDecrypt {
			t.Errorf("n=%d: modem comm %v should dominate compute %v", r.N,
				r.Communication, r.ClientEncrypt+r.ServerCompute+r.ClientDecrypt)
		}
	}
}

func TestFig7CombinedBeatsPlainSubstantially(t *testing.T) {
	// At the paper's 512-bit keys the reduction is ~90% (client encryption
	// dominates 16:1). Test keys are 128-bit and runs last milliseconds,
	// so a GC pause can wreck any single measurement — retry a few times
	// and require the shape to appear at least once. The benchmarks check
	// the full-strength claim.
	const attempts = 3
	var last float64
	for a := 0; a < attempts; a++ {
		rows, err := testConfig().Fig7()
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, r := range rows {
			last = r.Reduction()
			if last < 0.25 {
				ok = false
			}
		}
		if ok {
			return
		}
	}
	t.Errorf("combined optimizations never reduced >= 25%% across %d attempts (last %.0f%%)",
		attempts, 100*last)
}

func TestFig9MultiClientSpeedup(t *testing.T) {
	// The ~k-fold speedup claim is validated at benchmark scale
	// (BenchmarkFig9_MultiClient with 512-bit keys and n >= 1000, where it
	// measures ≈2.8-2.9x for k=3). Here it is checked only against outright
	// collapse, at the last size. At the shared test sizes each total is
	// about a millisecond, the per-client fixed costs (key set-up,
	// finalize, decrypt, hello) rival the shard work, and a neighbouring
	// test binary's load read 0.25-0.32x; at 6000 rows the single client
	// runs for tens of ms and each of the three shards for ≥ 10 ms, after a
	// first size that warms the single client's key. The harness has
	// already verified every run's sum against the oracle.
	cfg := testConfig()
	cfg.Sizes = []int{120, 6000}
	rows, err := cfg.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if last := rows[len(rows)-1]; last.Speedup() < 0.5 {
		t.Errorf("k=3 multi-client slower than half the single client: %.2fx (single %v, multi %v)",
			last.Speedup(), last.Baseline, last.Variant)
	}
}

func TestBaselinesOrdersOfMagnitudeCheaper(t *testing.T) {
	rows, err := testConfig().Baselines(netsim.ShortDistance)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SendIdx >= r.Private || r.Download >= r.Private {
			t.Errorf("n=%d: non-private baselines (%v, %v) should be far below private %v",
				r.N, r.SendIdx, r.Download, r.Private)
		}
		if r.PrivateBytes <= r.SendIdxBytes {
			t.Errorf("n=%d: private traffic %d should exceed index traffic %d", r.N, r.PrivateBytes, r.SendIdxBytes)
		}
	}
}

func TestYaoComparisonGap(t *testing.T) {
	cfg := testConfig()
	cfg.Sizes = []int{200}
	rows, err := cfg.YaoComparison()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.YaoEstimate <= r.Private {
		t.Errorf("Yao estimate %v should exceed the private protocol %v", r.YaoEstimate, r.Private)
	}
	if r.YaoGates < int64(200*32) {
		t.Errorf("gate count %d implausibly small", r.YaoGates)
	}
}

func TestChunkSweep(t *testing.T) {
	cfg := testConfig()
	rows, err := cfg.ChunkSweep([]int{5, 25, 120}, netsim.ShortDistance)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Chunks != 24 || rows[2].Chunks != 1 {
		t.Errorf("chunk counts = %d, %d", rows[0].Chunks, rows[2].Chunks)
	}
	if _, err := cfg.ChunkSweep([]int{0}, netsim.ShortDistance); err == nil {
		t.Error("zero chunk size should fail")
	}
}

func TestReportRendering(t *testing.T) {
	comp := []ComponentRow{{
		N: 1000, ClientEncrypt: 2 * time.Second, ServerCompute: time.Second,
		Communication: 100 * time.Millisecond, ClientDecrypt: time.Millisecond,
		Total: 3101 * time.Millisecond, BytesUp: 128000, BytesDown: 133,
	}}
	var buf bytes.Buffer
	if err := WriteComponentTable(&buf, "Figure 2", comp); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 2", "1000", "client encrypt", "2s"} {
		if !strings.Contains(out, want) {
			t.Errorf("component table missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	cmp := []ComparisonRow{{N: 1000, Baseline: 10 * time.Second, Variant: time.Second}}
	if err := WriteComparisonTable(&buf, "Figure 7", "plain", "combined", cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "90.0%") || !strings.Contains(buf.String(), "10.00x") {
		t.Errorf("comparison table:\n%s", buf.String())
	}

	buf.Reset()
	if err := ComponentCSV(&buf, comp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n,client_encrypt_ms") || !strings.Contains(buf.String(), "1000,2000.000") {
		t.Errorf("CSV:\n%s", buf.String())
	}

	buf.Reset()
	if err := ComparisonCSV(&buf, cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.9000") {
		t.Errorf("comparison CSV:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteYaoTable(&buf, []YaoRow{{N: 5, Private: time.Second, YaoEstimate: time.Minute, YaoEra: time.Hour, YaoGates: 99, YaoWireBytes: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3600x") {
		t.Errorf("yao table:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteChunkTable(&buf, 60, "short", []ChunkRow{{ChunkSize: 5, Chunks: 12, Total: time.Second}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteBaselineTable(&buf, "short", []BaselineRow{{N: 10, Private: time.Second, SendIdx: time.Millisecond, Download: time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
}
