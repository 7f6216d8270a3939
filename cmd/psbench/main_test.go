package main

import (
	"os"
	"path/filepath"
	"testing"

	"privstats/internal/bench"
)

func tinyConfig() bench.Config {
	return bench.Config{
		KeyBits:        128,
		Sizes:          []int{40},
		SelectFraction: 0.5,
		ChunkSize:      8,
		Clients:        2,
		Seed:           1,
	}
}

func TestRunSingleExperiment(t *testing.T) {
	for _, fig := range []string{"2", "4", "9", "chunk", "baseline"} {
		if err := run(tinyConfig(), fig, "", true); err != nil {
			t.Errorf("fig %s: %v", fig, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// "fold" named an ablation that is gone, not a paper figure.
	for _, fig := range []string{"42", "fold"} {
		if err := run(tinyConfig(), fig, "", false); err == nil {
			t.Errorf("unknown figure %q should fail", fig)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(tinyConfig(), "2", dir, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatalf("expected fig2.csv: %v", err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}
