// Command psbench regenerates the paper's evaluation on the virtual clock:
// every figure of Section 3, the §3.2 chunk-size sweep, and the Section 2
// comparisons with general SMC (Yao) and the trivial protocols, as
// catalogued in DESIGN.md §4.
//
// Usage:
//
//	psbench                    # every experiment, abbreviated sweep
//	psbench -full              # the paper's full 1k-100k sweep (slow)
//	psbench -fig 2             # one figure
//	psbench -fig yao           # the Fairplay/Yao comparison
//	psbench -csv out/          # also write CSV series per figure
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"privstats/internal/bench"
	"privstats/internal/netsim"
)

func main() {
	fig := flag.String("fig", "all", "which experiment: 2,3,4,5,6,7,9,yao,chunk,baseline or all")
	full := flag.Bool("full", false, "use the paper's full 1k-100k sweep (minutes per figure)")
	keyBits := flag.Int("bits", 512, "Paillier key size (the paper uses 512)")
	clients := flag.Int("clients", 3, "client count for figure 9")
	chunkSize := flag.Int("chunk", 100, "batch size for figures 4/7 (the paper uses 100)")
	csvDir := flag.String("csv", "", "also write CSV series into this directory")
	chart := flag.Bool("chart", false, "also render ASCII bar charts of each figure")
	computeScale := flag.Float64("compute-scale", 1, "multiply measured compute times in figures 2/3/5/6 (e.g. 40 emulates 2004-era hosts; see EXPERIMENTS.md)")
	quiet := flag.Bool("q", false, "suppress per-point progress")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.KeyBits = *keyBits
	cfg.Clients = *clients
	cfg.ChunkSize = *chunkSize
	cfg.ComputeScale = *computeScale
	if *full {
		cfg.Sizes = bench.FullSizes
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("psbench: %v", err)
		}
	}

	if err := run(cfg, strings.ToLower(*fig), *csvDir, *chart); err != nil {
		log.Fatalf("psbench: %v", err)
	}
}

func run(cfg bench.Config, fig, csvDir string, chart bool) error {
	type experiment struct {
		name string
		run  func() error
	}
	out := os.Stdout

	writeCSV := func(name string, f func(w *os.File) error) error {
		if csvDir == "" {
			return nil
		}
		file, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		defer file.Close()
		return f(file)
	}

	components := func(title, csvName string, runner func() ([]bench.ComponentRow, error)) func() error {
		return func() error {
			rows, err := runner()
			if err != nil {
				return err
			}
			if err := bench.WriteComponentTable(out, title, rows); err != nil {
				return err
			}
			if chart {
				if err := bench.WriteComponentChart(out, title+" (chart)", rows); err != nil {
					return err
				}
			}
			return writeCSV(csvName, func(w *os.File) error { return bench.ComponentCSV(w, rows) })
		}
	}
	comparison := func(title, baseName, varName, csvName string, runner func() ([]bench.ComparisonRow, error)) func() error {
		return func() error {
			rows, err := runner()
			if err != nil {
				return err
			}
			if err := bench.WriteComparisonTable(out, title, baseName, varName, rows); err != nil {
				return err
			}
			if chart {
				if err := bench.WriteComparisonChart(out, title+" (chart)", baseName, varName, rows); err != nil {
					return err
				}
			}
			return writeCSV(csvName, func(w *os.File) error { return bench.ComparisonCSV(w, rows) })
		}
	}

	experiments := []experiment{
		{"2", components("Figure 2: runtime components, no optimizations, short distance", "fig2.csv", cfg.Fig2)},
		{"3", components("Figure 3: runtime components, no optimizations, long distance (56Kbps)", "fig3.csv", cfg.Fig3)},
		{"4", comparison("Figure 4: overall runtime with and without batching, short distance",
			"without batching", "with batching", "fig4.csv", cfg.Fig4)},
		{"5", components("Figure 5: runtime components after preprocessing, short distance", "fig5.csv", cfg.Fig5)},
		{"6", components("Figure 6: runtime components after preprocessing, long distance (56Kbps)", "fig6.csv", cfg.Fig6)},
		{"7", comparison("Figure 7: combined optimizations vs. none, short distance",
			"no optimization", "preprocessing+batching", "fig7.csv", cfg.Fig7)},
		{"9", comparison(fmt.Sprintf("Figure 9: %d clients with secret sharing vs. single client", cfg.Clients),
			"single client", "multi-client", "fig9.csv", cfg.Fig9)},
		{"yao", func() error {
			rows, err := cfg.YaoComparison()
			if err != nil {
				return err
			}
			return bench.WriteYaoTable(out, rows)
		}},
		{"chunk", func() error {
			rows, err := cfg.ChunkSweep(nil, netsim.ShortDistance)
			if err != nil {
				return err
			}
			return bench.WriteChunkTable(out, cfg.Sizes[len(cfg.Sizes)-1], netsim.ShortDistance.Name, rows)
		}},
		{"baseline", func() error {
			rows, err := cfg.Baselines(netsim.ShortDistance)
			if err != nil {
				return err
			}
			return bench.WriteBaselineTable(out, netsim.ShortDistance.Name, rows)
		}},
	}

	ran := false
	for _, e := range experiments {
		if fig != "all" && fig != e.name {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			return fmt.Errorf("experiment %s: %w", e.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", fig)
	}
	return nil
}
