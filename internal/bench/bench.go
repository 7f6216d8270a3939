// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section 3). Each RunFigN function executes the
// corresponding experiment — real cryptography, measured computation, exact
// wire bytes through the link models — and returns rows matching the
// figure's series. The cmd/psbench tool and the repository-root
// bench_test.go are thin wrappers around this package.
//
// The experiment ↔ module map lives in DESIGN.md §4.
package bench

import (
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"privstats/internal/baseline"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
)

// Config fixes the experiment parameters.
type Config struct {
	// KeyBits is the Paillier modulus size; the paper uses 512.
	KeyBits int
	// Sizes is the database-size sweep. The paper sweeps 1,000–100,000.
	Sizes []int
	// SelectFraction is m/n, the fraction of rows selected.
	SelectFraction float64
	// ChunkSize is the batching chunk; the paper's §3.2 uses 100.
	ChunkSize int
	// Clients is k for the multi-client experiment; the paper's §3.5 uses 3.
	Clients int
	// Seed makes workloads reproducible.
	Seed int64
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer

	// ComputeScale multiplies measured computation times in the component
	// figures (2/3/5/6) before reporting; 0 means 1 (no scaling). The
	// paper ran on 2GHz Pentium-III-era hosts against the same physical
	// 56 Kbps link; setting this to ~30-50 reproduces the 2004
	// compute-to-communication ratio on modern CPUs (see EXPERIMENTS.md,
	// Figure 3 discussion). It intentionally does not affect the
	// comparison figures, whose both series scale together.
	ComputeScale float64
}

// DefaultConfig mirrors the paper's setup with a sweep that finishes in
// minutes on commodity hardware. Pass FullSizes for the paper's complete
// range.
func DefaultConfig() Config {
	return Config{
		KeyBits:        512,
		Sizes:          []int{1000, 2500, 5000, 10000},
		SelectFraction: 0.5,
		ChunkSize:      100,
		Clients:        3,
		Seed:           20040830, // the workshop's date
	}
}

// FullSizes is the paper's full sweep.
var FullSizes = []int{1000, 2500, 5000, 10000, 25000, 50000, 100000}

func (c Config) validate() error {
	if c.KeyBits < paillier.MinModulusBits {
		return fmt.Errorf("bench: key bits %d below minimum %d", c.KeyBits, paillier.MinModulusBits)
	}
	if len(c.Sizes) == 0 {
		return fmt.Errorf("bench: empty size sweep")
	}
	for _, n := range c.Sizes {
		if n < 1 {
			return fmt.Errorf("bench: bad database size %d", n)
		}
	}
	if c.SelectFraction <= 0 || c.SelectFraction > 1 {
		return fmt.Errorf("bench: select fraction %v outside (0,1]", c.SelectFraction)
	}
	if c.ChunkSize < 1 {
		return fmt.Errorf("bench: chunk size %d must be positive", c.ChunkSize)
	}
	if c.Clients < 1 {
		return fmt.Errorf("bench: client count %d must be positive", c.Clients)
	}
	if c.ComputeScale < 0 {
		return fmt.Errorf("bench: compute scale %v must be non-negative", c.ComputeScale)
	}
	return nil
}

// scale applies ComputeScale to a measured compute duration.
func (c Config) scale(d time.Duration) time.Duration {
	if c.ComputeScale <= 0 || c.ComputeScale == 1 {
		return d
	}
	return time.Duration(float64(d) * c.ComputeScale)
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format, args...)
	}
}

// newKey generates a fresh Paillier key of the configured size.
func (c Config) newKey() (homomorphic.PrivateKey, *paillier.PrivateKey, error) {
	sk, err := paillier.KeyGen(rand.Reader, c.KeyBits)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: key generation: %w", err)
	}
	return paillier.SchemeKey{SK: sk}, sk, nil
}

// workload builds the deterministic table + selection for size n.
func (c Config) workload(n int) (*database.Table, *database.Selection, error) {
	table, err := database.Generate(n, database.DistUniform, c.Seed+int64(n))
	if err != nil {
		return nil, nil, err
	}
	m := int(float64(n) * c.SelectFraction)
	sel, err := database.GenerateSelection(n, m, database.PatternRandom, c.Seed-int64(n))
	if err != nil {
		return nil, nil, err
	}
	return table, sel, nil
}

// ComponentRow is one point of a runtime-components figure (Figs 2/3/5/6).
type ComponentRow struct {
	N                  int
	ClientEncrypt      time.Duration
	ServerCompute      time.Duration
	Communication      time.Duration
	ClientDecrypt      time.Duration
	Total              time.Duration
	Preprocess         time.Duration // offline time, preprocessed runs only
	BytesUp, BytesDown int64
	// OnlineFallbacks counts index bits the client had to encrypt online
	// because the preprocessing pool ran dry (preprocessed runs only). A
	// nonzero value means the row's ClientEncrypt mixes pooled and online
	// costs and the §3.3 figure is skewed; the report flags it.
	OnlineFallbacks int
}

// ComparisonRow is one point of an overall-runtime comparison figure
// (Figs 4/7/9).
type ComparisonRow struct {
	N        int
	Baseline time.Duration // "without optimization" series
	Variant  time.Duration // the optimized series
}

// Reduction returns the fractional runtime reduction of the variant.
func (r ComparisonRow) Reduction() float64 {
	if r.Baseline <= 0 {
		return 0
	}
	return 1 - float64(r.Variant)/float64(r.Baseline)
}

// Speedup returns Baseline/Variant.
func (r ComparisonRow) Speedup() float64 {
	if r.Variant <= 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.Variant)
}

// runComponents executes the single-client protocol for every sweep size
// and returns component rows. pool-building (preprocessing) happens per
// size when preprocess is true, and its offline cost is recorded.
func (c Config) runComponents(link netsim.Link, preprocess bool, label string) ([]ComponentRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	sk, rawSK, err := c.newKey()
	if err != nil {
		return nil, err
	}
	rows := make([]ComponentRow, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			return nil, err
		}
		opts := selectedsum.Options{Link: link}
		var preprocessTime time.Duration
		var store *paillier.BitStore
		if preprocess {
			store = paillier.NewBitStore(rawSK.Public())
			start := time.Now()
			// Stock exactly what this query draws; a deployment would
			// overprovision, which only helps.
			ones := sel.Count()
			if err := store.Fill(n-ones, ones); err != nil {
				return nil, err
			}
			preprocessTime = time.Since(start)
			opts.Pool = paillier.SchemeBitStore{Store: store}
		}
		res, err := selectedsum.Run(sk, table, sel, opts)
		if err != nil {
			return nil, err
		}
		want, err := table.SelectedSum(sel)
		if err != nil {
			return nil, err
		}
		if res.Sum.Cmp(want) != 0 {
			return nil, fmt.Errorf("bench: %s n=%d: wrong sum %v, want %v", label, n, res.Sum, want)
		}
		row := ComponentRow{
			N:             n,
			ClientEncrypt: c.scale(res.Timings.ClientEncrypt),
			ServerCompute: c.scale(res.Timings.ServerCompute),
			Communication: res.Timings.Communication,
			ClientDecrypt: c.scale(res.Timings.ClientDecrypt),
			Total:         res.Timings.Total,
			Preprocess:    c.scale(preprocessTime),
			BytesUp:       res.BytesUp,
			BytesDown:     res.BytesDown,
		}
		if store != nil {
			row.OnlineFallbacks = store.OnlineFallbacks()
		}
		if c.ComputeScale > 0 && c.ComputeScale != 1 {
			// Scaling invalidates the measured pipeline makespan; report
			// the sequential total of the scaled components instead.
			row.Total = row.ClientEncrypt + row.ServerCompute + row.Communication + row.ClientDecrypt
		}
		rows = append(rows, row)
		c.progressf("%s n=%d total=%v\n", label, n, res.Timings.Total.Round(time.Millisecond))
	}
	return rows, nil
}

// Fig2 reproduces Figure 2: runtime components without optimizations over
// the short-distance (cluster switch) environment.
func (c Config) Fig2() ([]ComponentRow, error) {
	return c.runComponents(netsim.ShortDistance, false, "fig2")
}

// Fig3 reproduces Figure 3: the same experiment over the long-distance
// 56 Kbps dial-up environment.
func (c Config) Fig3() ([]ComponentRow, error) {
	return c.runComponents(netsim.LongDistance, false, "fig3")
}

// Fig5 reproduces Figure 5: components after preprocessing the index
// vector, short distance.
func (c Config) Fig5() ([]ComponentRow, error) {
	return c.runComponents(netsim.ShortDistance, true, "fig5")
}

// Fig6 reproduces Figure 6: components after preprocessing, long distance.
func (c Config) Fig6() ([]ComponentRow, error) {
	return c.runComponents(netsim.LongDistance, true, "fig6")
}

// fig4Options are the two protocol variants Figure 4 compares.
func (c Config) fig4Options(batched bool) selectedsum.Options {
	opts := selectedsum.Options{Link: netsim.ShortDistance}
	if batched {
		opts.ChunkSize = c.ChunkSize
	}
	return opts
}

// Fig4 reproduces Figure 4: overall runtime with and without batching of
// the index vector (batch size ChunkSize), short distance.
func (c Config) Fig4() ([]ComparisonRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	sk, _, err := c.newKey()
	if err != nil {
		return nil, err
	}
	rows := make([]ComparisonRow, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			return nil, err
		}
		plain, err := selectedsum.Run(sk, table, sel, c.fig4Options(false))
		if err != nil {
			return nil, err
		}
		batched, err := selectedsum.Run(sk, table, sel, c.fig4Options(true))
		if err != nil {
			return nil, err
		}
		rows = append(rows, ComparisonRow{N: n, Baseline: plain.Timings.Total, Variant: batched.Timings.Total})
		c.progressf("fig4 n=%d plain=%v batched=%v\n", n,
			plain.Timings.Total.Round(time.Millisecond), batched.Timings.Total.Round(time.Millisecond))
	}
	return rows, nil
}

// Fig7 reproduces Figure 7: overall runtime with both preprocessing and
// batching versus no optimizations, short distance.
func (c Config) Fig7() ([]ComparisonRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	sk, rawSK, err := c.newKey()
	if err != nil {
		return nil, err
	}
	rows := make([]ComparisonRow, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			return nil, err
		}
		plain, err := selectedsum.Run(sk, table, sel, selectedsum.Options{Link: netsim.ShortDistance})
		if err != nil {
			return nil, err
		}
		store := paillier.NewBitStore(rawSK.Public())
		ones := sel.Count()
		if err := store.Fill(n-ones, ones); err != nil {
			return nil, err
		}
		combined, err := selectedsum.Run(sk, table, sel, selectedsum.Options{
			Link:      netsim.ShortDistance,
			ChunkSize: c.ChunkSize,
			Pool:      paillier.SchemeBitStore{Store: store},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ComparisonRow{N: n, Baseline: plain.Timings.Total, Variant: combined.Timings.Total})
		c.progressf("fig7 n=%d plain=%v combined=%v\n", n,
			plain.Timings.Total.Round(time.Millisecond), combined.Timings.Total.Round(time.Millisecond))
	}
	return rows, nil
}

// Fig9 reproduces Figure 9: overall runtime with k cooperating clients
// (secret-shared blinding) versus a single client.
func (c Config) Fig9() ([]ComparisonRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	newKey := func() (homomorphic.PrivateKey, error) {
		k, _, err := c.newKey()
		return k, err
	}
	sk, _, err := c.newKey()
	if err != nil {
		return nil, err
	}
	rows := make([]ComparisonRow, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			return nil, err
		}
		single, err := selectedsum.Run(sk, table, sel, selectedsum.Options{Link: netsim.ShortDistance})
		if err != nil {
			return nil, err
		}
		multi, err := selectedsum.RunMulti(newKey, table, sel, selectedsum.MultiOptions{
			Link:    netsim.ShortDistance,
			Clients: c.Clients,
		})
		if err != nil {
			return nil, err
		}
		if multi.Sum.Cmp(single.Sum) != 0 {
			return nil, fmt.Errorf("bench: fig9 n=%d: multi %v != single %v", n, multi.Sum, single.Sum)
		}
		rows = append(rows, ComparisonRow{N: n, Baseline: single.Timings.Total, Variant: multi.Total})
		c.progressf("fig9 n=%d single=%v multi(k=%d)=%v\n", n,
			single.Timings.Total.Round(time.Millisecond), c.Clients, multi.Total.Round(time.Millisecond))
	}
	return rows, nil
}

// BaselineRow places the non-private baselines next to the private
// protocol for one database size.
type BaselineRow struct {
	N                          int
	Private, SendIdx, Download time.Duration
	PrivateBytes, SendIdxBytes int64
	DownloadBytes              int64
}

// Baselines runs the private protocol against the two trivial protocols of
// the paper's Section 2 over the given link.
func (c Config) Baselines(link netsim.Link) ([]BaselineRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	sk, _, err := c.newKey()
	if err != nil {
		return nil, err
	}
	rows := make([]BaselineRow, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			return nil, err
		}
		priv, err := selectedsum.Run(sk, table, sel, selectedsum.Options{Link: link})
		if err != nil {
			return nil, err
		}
		si, err := baseline.SendIndices(table, sel, link)
		if err != nil {
			return nil, err
		}
		dl, err := baseline.DownloadDatabase(table, sel, link)
		if err != nil {
			return nil, err
		}
		if si.Sum.Cmp(priv.Sum) != 0 || dl.Sum.Cmp(priv.Sum) != 0 {
			return nil, fmt.Errorf("bench: baseline disagreement at n=%d", n)
		}
		rows = append(rows, BaselineRow{
			N:             n,
			Private:       priv.Timings.Total,
			SendIdx:       si.Total,
			Download:      dl.Total,
			PrivateBytes:  priv.BytesUp + priv.BytesDown,
			SendIdxBytes:  si.BytesUp + si.BytesDown,
			DownloadBytes: dl.BytesUp + dl.BytesDown,
		})
	}
	return rows, nil
}
