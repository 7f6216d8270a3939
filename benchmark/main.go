// Command benchmark is the repository's benchmark: four closed-loop workloads
// against the live in-process stack (loopback TCP through server, cluster and
// jobs, real Paillier, every answer checked against the plaintext oracle),
// reported as named end-to-end metrics, plus a traced pass per workload that
// times each layer's public functions from outside. See README.md.
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"privstats/internal/paillier"
)

const defaultSeed = 20040830 // the paper's VLDB 2004 session

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", defaultSeed, "seed of the table, the selections and the job mix")
		seconds = flag.Int("seconds", 20, "measured seconds per pass")
		traceOn = flag.Int("trace", -1, "0: end-to-end pass, 1: per-layer pass, printing one JSON result line; unset: both, in fresh processes, as a report")
		reps    = flag.Int("reps", 1, "report mode: runs per workload, on seeds seed, seed+1, ...")
		outDir  = flag.String("out", "out", "directory for the report, span files and scratch data")
		compare = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
		genKeys = flag.Bool("genkeys", false, "regenerate the key fixtures under testdata/ (changes every timing)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn, *reps, *outDir, *compare, *genKeys, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traceOn, reps int, outDir string, compare, genKeys bool, args []string) error {
	switch {
	case genKeys:
		return generateKeys("testdata")
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(os.Stdout, args[0], args[1])
	case seconds < 1 || reps < 1:
		return fmt.Errorf("-seconds and -reps must be positive")
	case traceOn == 0 || traceOn == 1:
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		return singlePass(w, seed, time.Duration(seconds)*time.Second, traceOn == 1, outDir)
	case traceOn != -1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	return runReport(selected, seed, seconds, reps, outDir)
}

// singlePass runs one pass of one workload in this process and prints its
// result as the last line of standard output.
func singlePass(w workload, seed int64, d time.Duration, traced bool, outDir string) error {
	// The reference box has 2 cores; more than 4 would measure a different
	// system than the one the bounds were set on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	workDir, err := os.MkdirTemp(mkdirAll(filepath.Join(outDir, "work")), w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	var res *passResult
	if traced {
		res, err = tracedPass(ctx, w, seed, d, workDir, outDir)
	} else {
		res, err = measuredPass(ctx, w, seed, d, workDir)
	}
	if err != nil {
		return err
	}
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	// Failed ops are part of the result, not a reason to withhold it.
	fmt.Println(string(line))
	return nil
}

// mkdirAll creates dir and returns it; a failure surfaces at first use.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// generateKeys writes fresh key fixtures. Every timing depends on the moduli,
// so new fixtures start a new baseline.
func generateKeys(dir string) error {
	for _, bits := range []int{512, 1024} {
		sk, err := paillier.KeyGen(rand.Reader, bits)
		if err != nil {
			return err
		}
		data, err := sk.MarshalBinary()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("key%d.bin", bits))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
