// Package privstats_bench holds one testing.B benchmark per table/figure of
// the paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// benchmark drives the same harness as cmd/psbench and reports the figure's
// headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in abbreviated form. For the paper's
// full 1k-100k sweep use `go run ./cmd/psbench -full`.
package privstats_bench

import (
	"testing"
	"time"

	"privstats/internal/bench"
	"privstats/internal/netsim"
)

// benchConfig returns the shared configuration: the paper's 512-bit keys
// with a sweep sized so the whole suite finishes in a few minutes. The
// -short flag shrinks it further.
func benchConfig(b *testing.B) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Sizes = []int{1000, 5000}
	if testing.Short() {
		cfg.KeyBits = 128
		cfg.Sizes = []int{200}
	}
	return cfg
}

// reportComponents converts the largest-n component row into benchmark
// metrics (milliseconds, matching the figures' y-axis).
func reportComponents(b *testing.B, rows []bench.ComponentRow) {
	r := rows[len(rows)-1]
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(r.ClientEncrypt), "client-enc-ms")
	b.ReportMetric(ms(r.ServerCompute), "server-ms")
	b.ReportMetric(ms(r.Communication), "comm-ms")
	b.ReportMetric(ms(r.ClientDecrypt), "decrypt-ms")
	b.ReportMetric(ms(r.Total), "total-ms")
	b.ReportMetric(float64(r.BytesUp), "bytes-up")
}

func reportComparison(b *testing.B, rows []bench.ComparisonRow) {
	r := rows[len(rows)-1]
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(r.Baseline), "baseline-ms")
	b.ReportMetric(ms(r.Variant), "variant-ms")
	b.ReportMetric(100*r.Reduction(), "reduction-%")
	b.ReportMetric(r.Speedup(), "speedup-x")
}

// BenchmarkFig2_ComponentsShortDistance reproduces Figure 2: runtime
// components of the unoptimized protocol over the cluster-switch link.
// Expected shape: client encryption ≫ server ≫ communication ≫ decryption,
// all linear in n.
func BenchmarkFig2_ComponentsShortDistance(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComponents(b, rows)
		}
	}
}

// BenchmarkFig3_ComponentsLongDistance reproduces Figure 3: the same
// protocol over the 56 Kbps dial-up link. Expected shape: communication
// grows to a substantial share, but computation still dominates.
func BenchmarkFig3_ComponentsLongDistance(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComponents(b, rows)
		}
	}
}

// BenchmarkFig4_Batching reproduces Figure 4: overall runtime with and
// without batching of the index vector (batch size 100). Expected shape:
// a modest constant-fraction reduction from pipeline overlap.
func BenchmarkFig4_Batching(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, rows)
		}
	}
}

// BenchmarkFig5_PreprocessedShortDistance reproduces Figure 5: components
// after index-vector preprocessing over the fast link. Expected shape:
// client online time collapses; the server becomes the dominant component;
// overall reduction ≈ 80%+.
func BenchmarkFig5_PreprocessedShortDistance(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComponents(b, rows)
			b.ReportMetric(float64(rows[len(rows)-1].Preprocess)/float64(time.Millisecond), "offline-preproc-ms")
		}
	}
}

// BenchmarkFig6_PreprocessedLongDistance reproduces Figure 6: preprocessing
// over the modem link. Expected shape: communication becomes the dominant
// component.
func BenchmarkFig6_PreprocessedLongDistance(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComponents(b, rows)
		}
	}
}

// BenchmarkFig7_CombinedOptimizations reproduces Figure 7: preprocessing
// plus batching versus the plain protocol. Expected shape: ≈90%+ online
// reduction (paper: ≈94%).
func BenchmarkFig7_CombinedOptimizations(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, rows)
		}
	}
}

// BenchmarkFig9_MultiClient reproduces Figure 9: three cooperating clients
// with secret-shared blinding versus a single client. Expected shape:
// ≈k-fold speedup minus combining overhead (paper: ≈2.99x for k=3).
func BenchmarkFig9_MultiClient(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, rows)
		}
	}
}

// BenchmarkYaoComparison reproduces the Section 2 general-SMC comparison:
// the selected-sum protocol versus a calibrated Yao/Fairplay cost model at
// n=1,000. Expected shape: the Yao estimate exceeds the private protocol by
// orders of magnitude (the paper quotes ≥15 minutes vs ≈2 minutes at 2004
// constants).
func BenchmarkYaoComparison(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Sizes = []int{1000}
	if testing.Short() {
		cfg.Sizes = []int{200}
	}
	for i := 0; i < b.N; i++ {
		rows, err := cfg.YaoComparison()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			r := rows[len(rows)-1]
			b.ReportMetric(float64(r.Private)/float64(time.Millisecond), "private-ms")
			b.ReportMetric(float64(r.YaoEstimate)/float64(time.Millisecond), "yao-ms")
			b.ReportMetric(float64(r.YaoEstimate)/float64(r.Private), "yao-over-private-x")
			b.ReportMetric(float64(r.YaoGates), "yao-gates")
		}
	}
}

// BenchmarkChunkSize reproduces experiment E10: sensitivity of the batched
// protocol to the chunk size (paper §3.2: "the optimal chunk size will
// depend on the relative communication and computation speeds").
func BenchmarkChunkSize(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Sizes = []int{cfg.Sizes[0]}
	sweep := []int{10, 100, 1000}
	for i := 0; i < b.N; i++ {
		rows, err := cfg.ChunkSweep(sweep, netsim.ShortDistance)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Total)/float64(time.Millisecond),
					"chunk"+itoa(r.ChunkSize)+"-ms")
			}
		}
	}
}

// BenchmarkBaselines places the private protocol next to the two trivial
// non-private protocols of Section 2.
func BenchmarkBaselines(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Sizes = []int{cfg.Sizes[0]}
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Baselines(netsim.ShortDistance)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			r := rows[len(rows)-1]
			b.ReportMetric(float64(r.Private)/float64(time.Millisecond), "private-ms")
			b.ReportMetric(float64(r.SendIdx)/float64(time.Microsecond), "send-indices-us")
			b.ReportMetric(float64(r.Download)/float64(time.Microsecond), "download-db-us")
		}
	}
}

// itoa avoids importing strconv for a metric label.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
