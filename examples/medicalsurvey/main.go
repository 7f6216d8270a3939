// Medical survey: privacy-preserving statistics over a patient registry —
// the data-mining scenario the paper's introduction motivates ("the growing
// concern about the privacy of individuals when their data is stored,
// aggregated, and mined").
//
// A hospital holds blood-pressure readings for 20,000 patients. A research
// client knows (from a public registry schema) which row ranges correspond
// to its cohort of interest and wants that cohort's mean and variance:
//
//   - the hospital must not learn which cohort the researcher studies;
//   - the researcher must learn nothing about patients outside the
//     aggregate it is entitled to.
//
// Both questions are JobSpecs, planned by jobs.BuildPlan exactly as the
// sumjobd gateway plans them and run in process through jobs.InProcess: the
// variance job folds one encrypted index vector against the value and
// square columns in a single round, and the group-by packs every band's sum
// into one reply.
//
// Run it:
//
//	go run ./examples/medicalsurvey
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"math/big"
	mrand "math/rand"
	"time"

	"privstats/internal/database"
	"privstats/internal/jobs"
	"privstats/internal/paillier"
)

func main() {
	// The hospital's registry: systolic blood pressure (mmHg), one row per
	// patient. Synthetic, ~N(125, 18), deterministic.
	const patients = 20_000
	rng := mrand.New(mrand.NewSource(7))
	readings := make([]uint32, patients)
	for i := range readings {
		v := 125 + 18*rng.NormFloat64()
		if v < 70 {
			v = 70
		}
		if v > 220 {
			v = 220
		}
		readings[i] = uint32(v)
	}
	registry := database.New(readings)

	// The researcher's cohort: rows 5,000-7,499 (say, patients enrolled in
	// a particular study window). The hospital never sees these indices.
	const lo, hi = 5_000, 7_500
	cohort := jobs.SelectionSpec{Ranges: [][2]int{{lo, hi}}}

	key, err := paillier.KeyGen(rand.Reader, 512)
	if err != nil {
		log.Fatal(err)
	}
	sk := paillier.SchemeKey{SK: key}
	schema := jobs.Schema{
		Rows:          patients,
		Columns:       []string{"value"},
		PlaintextBits: sk.PublicKey().PlaintextSpace().BitLen(),
	}
	run := func(spec *jobs.JobSpec) *jobs.Result {
		plan, err := jobs.BuildPlan(spec, schema)
		if err != nil {
			log.Fatal(err)
		}
		res, err := jobs.RunPlan(context.Background(), plan, sk.PublicKey(), jobs.InProcess(sk, registry))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	start := time.Now()
	moments := run(&jobs.JobSpec{Op: jobs.OpVariance, Selection: cohort})
	elapsed := time.Since(start)

	fmt.Printf("cohort size:        %d patients\n", moments.Count)
	fmt.Printf("mean systolic BP:   %.2f mmHg\n", ratFloat(moments.Mean))
	fmt.Printf("variance:           %.2f\n", ratFloat(moments.Variance))
	fmt.Printf("protocol wall time: %v\n", elapsed.Round(time.Millisecond))

	// Verify against the cleartext oracle (only possible here because this
	// example owns both sides): the private results are exact rationals, so
	// they must equal the oracle's exactly.
	sum, sumSq := new(big.Int), new(big.Int)
	for i := lo; i < hi; i++ {
		v := big.NewInt(int64(readings[i]))
		sum.Add(sum, v)
		sumSq.Add(sumSq, new(big.Int).Mul(v, v))
	}
	m := big.NewInt(hi - lo)
	wantMean := new(big.Rat).SetFrac(sum, m)
	// (m·Σx² − (Σx)²) / m²
	num := new(big.Int).Sub(new(big.Int).Mul(m, sumSq), new(big.Int).Mul(sum, sum))
	wantVar := new(big.Rat).SetFrac(num, new(big.Int).Mul(m, m))
	if moments.Count != hi-lo || !ratEqual(moments.Mean, wantMean) || !ratEqual(moments.Variance, wantVar) {
		log.Fatalf("oracle mismatch: got n=%d mean %s variance %s, want n=%d mean %s variance %s",
			moments.Count, moments.Mean, moments.Variance, hi-lo, wantMean.RatString(), wantVar.RatString())
	}
	fmt.Println("oracle check:       mean and variance exact ✓")

	// Second query: a private GROUP BY over the hospital's public age
	// bands. The band per row is public schema; which patients are in the
	// researcher's cohort stays encrypted. One uplink returns every band's
	// sum; the counts are the researcher's own knowledge.
	bands := []string{"<40", "40-64", "65+"}
	labels := make([]int, patients)
	for i := range labels {
		labels[i] = i % len(bands) // synthetic band assignment
	}
	grouped := run(&jobs.JobSpec{
		Op:        jobs.OpGroupBy,
		Selection: cohort,
		Params:    &jobs.GroupByParams{Labels: labels, Groups: len(bands)},
	})
	fmt.Println("\ncohort mean BP by public age band (one protocol round):")
	bandSums := make([]*big.Int, len(bands))
	bandCounts := make([]int, len(bands))
	for b := range bandSums {
		bandSums[b] = new(big.Int)
	}
	for i := lo; i < hi; i++ {
		bandSums[labels[i]].Add(bandSums[labels[i]], big.NewInt(int64(readings[i])))
		bandCounts[labels[i]]++
	}
	for b, name := range bands {
		row := grouped.Groups[b]
		if row.Count != bandCounts[b] || row.Sum != bandSums[b].String() {
			log.Fatalf("oracle mismatch in band %s: got n=%d sum %s, want n=%d sum %s",
				name, row.Count, row.Sum, bandCounts[b], bandSums[b])
		}
		if row.Count == 0 {
			fmt.Printf("  %-6s no cohort members\n", name)
			continue
		}
		if want := new(big.Rat).SetFrac(bandSums[b], big.NewInt(int64(row.Count))); !ratEqual(row.Mean, want) {
			log.Fatalf("oracle mismatch in band %s: mean %s, want %s", name, row.Mean, want.RatString())
		}
		fmt.Printf("  %-6s n=%-5d mean %.2f mmHg\n", name, row.Count, ratFloat(row.Mean))
	}
	fmt.Println("oracle check:       band counts, sums and means exact ✓")
}

// ratFloat renders an exact "p/q" result for display.
func ratFloat(s string) float64 {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		log.Fatalf("result %q is not a rational", s)
	}
	f, _ := r.Float64()
	return f
}

// ratEqual reports whether the exact result s equals want.
func ratEqual(s string, want *big.Rat) bool {
	r, ok := new(big.Rat).SetString(s)
	return ok && r.Cmp(want) == 0
}
