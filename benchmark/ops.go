package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/trace"
)

// jobMix is the round-robin order of job ops; a client's first op is drawn
// from the seed.
var jobMix = []string{jobs.OpVariance, jobs.OpMean, jobs.OpSum, jobs.OpGroupBy, jobs.OpCovariance}

const (
	jobGroups   = 4
	pollEvery   = 2 * time.Millisecond
	opTimeout   = 60 * time.Second
	selectedPct = 50
)

// groupLabels assigns every row a group, from the seed.
func groupLabels(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x6c6162656c73)) // "labels"
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(jobGroups)
	}
	return labels
}

// opResult is what one completed op contributes to the metrics.
type opResult struct {
	latency time.Duration
	rows    int // encrypted index entries the op uploaded
	submit  time.Duration
}

// client is one closed-loop analyst: it owns its selection stream and its
// position in the replay pool, and issues one op at a time.
type client struct {
	st     *stack
	rng    *rand.Rand
	pool   homomorphic.EncryptorPool
	http   *http.Client
	traced bool
	next   int // position in jobMix
}

func (st *stack) newClient(seed int64, index int, traced bool) *client {
	rng := rand.New(rand.NewSource(seed + int64(index)*7919))
	return &client{
		st:     st,
		rng:    rng,
		pool:   st.newPool(),
		http:   &http.Client{Timeout: opTimeout},
		traced: traced,
		next:   rng.Intn(len(jobMix)),
	}
}

func (c *client) selection() (*database.Selection, error) {
	n := c.st.w.n
	return database.GenerateSelection(n, n*selectedPct/100, database.PatternRandom, c.rng.Int63())
}

// do runs one op and checks its answer against the plaintext oracle. Input
// generation and the oracle are outside the latency.
func (c *client) do(ctx context.Context) (opResult, error) {
	sel, err := c.selection()
	if err != nil {
		return opResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if c.st.w.jobs {
		return c.doJob(ctx, sel)
	}
	want, err := c.st.table.SelectedSum(sel)
	if err != nil {
		return opResult{}, err
	}
	spec := cluster.QuerySpec{Sel: sel, ChunkSize: c.st.w.chunk, Pool: c.pool}
	if c.traced {
		spec.TraceID = trace.NewID()
	}
	start := time.Now()
	sums, err := c.st.client.QueryColumns(ctx, []string{c.st.front}, c.st.key, spec)
	lat := time.Since(start)
	if err != nil {
		return opResult{}, err
	}
	if len(sums) != 1 || sums[0].Cmp(want) != 0 {
		return opResult{}, fmt.Errorf("wrong answer: got %v, oracle %v", sums, want)
	}
	return opResult{latency: lat, rows: sel.Len()}, nil
}

// doJob submits the next job of the mix over HTTP, polls it to a final state
// and checks every field of the result.
func (c *client) doJob(ctx context.Context, sel *database.Selection) (opResult, error) {
	op := jobMix[c.next%len(jobMix)]
	c.next++
	spec := jobs.JobSpec{Op: op, Selection: jobs.SelectionSpec{Rows: sel.Indices()}}
	if op == jobs.OpGroupBy {
		spec.Params = &jobs.GroupByParams{Labels: c.st.labels, Groups: jobGroups}
	}
	want, queries := jobOracle(op, c.st.table, sel, c.st.labels)
	body, err := json.Marshal(spec)
	if err != nil {
		return opResult{}, err
	}

	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.st.jobsURL, bytes.NewReader(body))
	if err != nil {
		return opResult{}, err
	}
	req.Header.Set(jobs.TenantHeader, tenantName)
	var job jobs.Job
	if err := c.roundTrip(req, http.StatusAccepted, &job); err != nil {
		return opResult{}, fmt.Errorf("submit: %w", err)
	}
	submit := time.Since(start)
	for job.State != jobs.StateDone && job.State != jobs.StateFailed {
		select {
		case <-ctx.Done():
			return opResult{}, fmt.Errorf("job %s: %w", job.ID, ctx.Err())
		case <-time.After(pollEvery):
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.st.jobsURL+job.ID, nil)
		if err != nil {
			return opResult{}, err
		}
		if err := c.roundTrip(req, http.StatusOK, &job); err != nil {
			return opResult{}, fmt.Errorf("poll: %w", err)
		}
	}
	lat := time.Since(start)
	if job.State == jobs.StateFailed {
		return opResult{}, fmt.Errorf("job %s failed: %s", job.ID, job.Error)
	}
	got, err := json.Marshal(job.Result)
	if err != nil {
		return opResult{}, err
	}
	if wantJSON, _ := json.Marshal(want); !bytes.Equal(got, wantJSON) {
		return opResult{}, fmt.Errorf("wrong answer for %s: got %s, oracle %s", op, got, wantJSON)
	}
	return opResult{latency: lat, rows: queries * sel.Len(), submit: submit}, nil
}

func (c *client) roundTrip(req *http.Request, wantStatus int, into any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// jobOracle computes op's result from the plaintext table with exact
// rationals, independently of the planner, and the number of private queries
// the job needs.
func jobOracle(op string, table *database.Table, sel *database.Selection, labels []int) (*jobs.Result, int) {
	rat := func(num, den *big.Int) string { return new(big.Rat).SetFrac(num, den).RatString() }
	idx := sel.Indices()
	m := big.NewInt(int64(len(idx)))
	sum, squares := new(big.Int), new(big.Int)
	groupSum := make([]*big.Int, jobGroups)
	groupCount := make([]int, jobGroups)
	for g := range groupSum {
		groupSum[g] = new(big.Int)
	}
	for _, i := range idx {
		v := new(big.Int).SetUint64(uint64(table.Value(i)))
		sum.Add(sum, v)
		squares.Add(squares, new(big.Int).Mul(v, v))
		groupSum[labels[i]].Add(groupSum[labels[i]], v)
		groupCount[labels[i]]++
	}
	res := &jobs.Result{Op: op, Count: len(idx)}
	queries := 1
	switch op {
	case jobs.OpSum:
		res.Sum = sum.String()
	case jobs.OpMean:
		res.Sum, res.Mean = sum.String(), rat(sum, m)
	case jobs.OpVariance, jobs.OpCovariance:
		// (m·Σx² − (Σx)²) / m²; the repo's tables have one column, so the
		// covariance is the self-covariance.
		num := new(big.Int).Mul(m, squares)
		num.Sub(num, new(big.Int).Mul(sum, sum))
		ratio := rat(num, new(big.Int).Mul(m, m))
		res.Sum, res.SumSquares = sum.String(), squares.String()
		if op == jobs.OpVariance {
			res.Mean, res.Variance = rat(sum, m), ratio
		} else {
			res.Covariance = ratio
		}
	case jobs.OpGroupBy:
		queries = 0
		for g := range groupSum {
			row := jobs.GroupResult{Group: g, Count: groupCount[g], Sum: groupSum[g].String()}
			if groupCount[g] > 0 {
				row.Mean = rat(groupSum[g], big.NewInt(int64(groupCount[g])))
				queries++
			}
			res.Groups = append(res.Groups, row)
		}
	}
	return res, queries
}
