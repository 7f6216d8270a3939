package jobs_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"

	"privstats/internal/database"
	"privstats/internal/jobs"
	"privstats/internal/paillier"
)

// runInProcess plans spec over table and runs it in process under a fresh
// key, the schema's plaintext width taken from the key as the gateway does.
func runInProcess(table *database.Table, spec *jobs.JobSpec) *jobs.Result {
	key, err := paillier.KeyGen(rand.Reader, 128)
	if err != nil {
		log.Fatal(err)
	}
	sk := paillier.SchemeKey{SK: key}
	plan, err := jobs.BuildPlan(spec, jobs.Schema{
		Rows:          table.Len(),
		Columns:       []string{"value"},
		PlaintextBits: sk.PublicKey().PlaintextSpace().BitLen(),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := jobs.RunPlan(context.Background(), plan, sk.PublicKey(), jobs.InProcess(sk, table))
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// ExampleRunPlan_variance privately computes mean and variance of a selected
// cohort in one protocol round.
func ExampleRunPlan_variance() {
	table := database.New([]uint32{2, 100, 4, 6}) // cohort: 2, 4, 6
	res := runInProcess(table, &jobs.JobSpec{
		Op:        jobs.OpVariance,
		Selection: jobs.SelectionSpec{Rows: []int{0, 2, 3}},
	})
	fmt.Println("count:", res.Count)
	fmt.Println("mean:", res.Mean)
	fmt.Println("variance:", res.Variance)
	// Output:
	// count: 3
	// mean: 4
	// variance: 8/3
}

// ExampleRunPlan_groupBy aggregates a private selection per public stratum:
// one uplink, per-group sums back.
func ExampleRunPlan_groupBy() {
	table := database.New([]uint32{10, 20, 30, 40})
	res := runInProcess(table, &jobs.JobSpec{
		Op:        jobs.OpGroupBy,
		Selection: jobs.SelectionSpec{All: true},
		Params:    &jobs.GroupByParams{Labels: []int{0, 1, 0, 1}, Groups: 2}, // public group per row
	})
	fmt.Println("group 0 sum:", res.Groups[0].Sum, "count:", res.Groups[0].Count)
	fmt.Println("group 1 sum:", res.Groups[1].Sum, "count:", res.Groups[1].Count)
	// Output:
	// group 0 sum: 40 count: 2
	// group 1 sum: 60 count: 2
}
