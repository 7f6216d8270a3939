package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"privstats/internal/database"
)

// opOracle is the expected result of a sum, mean, variance or covariance,
// from the plaintext. The variance is summed as Σ(x − mean)²/m, not through
// the planner's moment identity, so the two computations check each other.
func opOracle(op string, values []uint32, sel *database.Selection) *Result {
	m := sel.Count()
	s, q := new(big.Int), new(big.Int)
	for _, i := range sel.Indices() {
		x := big.NewInt(int64(values[i]))
		s.Add(s, x)
		q.Add(q, new(big.Int).Mul(x, x))
	}
	res := &Result{Op: op, Count: m, Sum: s.String()}
	if op == OpSum {
		return res
	}
	mean := new(big.Rat).SetFrac(s, big.NewInt(int64(m)))
	variance := new(big.Rat)
	for _, i := range sel.Indices() {
		d := new(big.Rat).Sub(new(big.Rat).SetInt64(int64(values[i])), mean)
		variance.Add(variance, d.Mul(d, d))
	}
	variance.Quo(variance, new(big.Rat).SetInt64(int64(m)))
	switch op {
	case OpMean:
		res.Mean = mean.RatString()
	case OpVariance:
		res.SumSquares = q.String()
		res.Mean = mean.RatString()
		res.Variance = variance.RatString()
	case OpCovariance:
		res.SumSquares = q.String()
		res.Covariance = variance.RatString()
	}
	return res
}

// TestInProcessMatchesOracle runs every op through RunPlan and the
// in-process runner against the real ServeSource, under the 512-bit fixture
// key, on a table whose upper half holds 2^32−1 in every row. Each result
// must equal the plaintext oracle byte for byte.
func TestInProcessMatchesOracle(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(35))
	values := make([]uint32, n)
	for i := range values {
		values[i] = rng.Uint32()
		if i >= n/2 {
			values[i] = 1<<32 - 1
		}
	}
	table := database.New(values)
	sk := fixtureKey(t, 512)
	pk := sk.PublicKey()
	schema := Schema{Rows: n, Columns: []string{"value"}, PlaintextBits: pk.PlaintextSpace().BitLen()}
	run := InProcess(sk, table)

	check := func(name string, spec *JobSpec, want *Result) {
		t.Helper()
		plan, err := BuildPlan(spec, schema)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := RunPlan(context.Background(), plan, pk, run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := mustJSON(t, res), mustJSON(t, want); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	selections := map[string]SelectionSpec{
		"all":        {All: true},
		"one row":    {Rows: []int{n - 1}},
		"max values": {Ranges: [][2]int{{n / 2, n}}},
		"two ranges": {Ranges: [][2]int{{3, 7}, {n - 9, n - 2}}},
	}
	for _, op := range []string{OpSum, OpMean, OpVariance, OpCovariance} {
		for name, selSpec := range selections {
			sel, err := selSpec.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			check(op+", "+name, &JobSpec{Op: op, Selection: selSpec}, opOracle(op, values, sel))
		}
	}

	empty := SelectionSpec{Ranges: [][2]int{{0, 0}}}
	emptySel, err := empty.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	check("sum, empty", &JobSpec{Op: OpSum, Selection: empty}, opOracle(OpSum, values, emptySel))

	capacity := slotCapacity(schema.PlaintextBits, slotWidth(n))
	for _, groups := range []int{1, capacity, capacity + 1} {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % groups
		}
		for name, selSpec := range map[string]SelectionSpec{"all": {All: true}, "max values": selections["max values"], "empty": empty} {
			sel, err := selSpec.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			spec := &JobSpec{Op: OpGroupBy, Selection: selSpec, Params: &GroupByParams{Labels: labels, Groups: groups}}
			check(fmt.Sprintf("groupby, G=%d (capacity %d), %s", groups, capacity, name), spec, groupByOracle(values, sel, labels, groups))
		}
	}
}

// TestRunPlanStepsAndCheckpoints: steps run in order, each checkpointed once
// after it succeeds; a failed step stops the plan and names itself; a
// cancelled context ends an in-process step.
func TestRunPlanStepsAndCheckpoints(t *testing.T) {
	const groups = 3
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	spec := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{All: true}, Params: &GroupByParams{Labels: labels, Groups: groups}}
	plan, err := BuildPlan(spec, testSchema()) // one group per step
	if err != nil {
		t.Fatal(err)
	}
	var ran, checkpoints []string
	plan.Checkpoint = func(step string) { checkpoints = append(checkpoints, step) }
	pk := jobTestKey(t).PublicKey()
	boom := errors.New("boom")
	_, err = RunPlan(context.Background(), plan, pk, func(_ context.Context, st Step) ([]*big.Int, error) {
		ran = append(ran, st.Label)
		if st.Label == "group1" {
			return nil, boom
		}
		return sums(5), nil
	})
	if !errors.Is(err, boom) || err.Error() != "jobs: step group1: boom" {
		t.Errorf("failed step: %v", err)
	}
	if fmt.Sprint(ran) != "[group0 group1]" || fmt.Sprint(checkpoints) != "[group0]" {
		t.Errorf("ran %v, checkpointed %v", ran, checkpoints)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	table := database.New(make([]uint32, len(labels)))
	if _, err := RunPlan(ctx, plan, pk, InProcess(jobTestKey(t), table)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}
	if _, err := RunPlan(context.Background(), nil, pk, InProcess(jobTestKey(t), table)); err == nil {
		t.Error("RunPlan accepted a nil plan")
	}
}
