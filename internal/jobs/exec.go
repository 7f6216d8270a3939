package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/homomorphic"
	"privstats/internal/trace"
)

// Executor runs plans against a cluster (or single-server) endpoint through
// the fan-out client, so every step inherits its retry, failover, and hedge
// policy. The executor is the analyst side: it holds the private key,
// encrypts selections on the way out, and decrypts sums on the way in —
// ciphertext never appears in a job result.
type Executor struct {
	// Client is the fan-out client (required).
	Client *cluster.Client
	// Backends is the failover list of aggregator (or server) addresses.
	Backends []string
	// Key is the analyst key pair (required).
	Key homomorphic.PrivateKey
	// ChunkSize batches the index stream; 0 sends one chunk.
	ChunkSize int
	// Pool supplies preprocessed bit encryptions; nil encrypts online.
	Pool homomorphic.EncryptorPool
	// Traces, when non-nil, records one gateway-side trace per job under
	// the job's ID — the same ID every hop of the fan-out records under.
	Traces *trace.Recorder
}

// validate checks the executor's wiring at construction time.
func (e *Executor) validate() error {
	if e == nil {
		return errors.New("jobs: nil executor")
	}
	if e.Client == nil {
		return errors.New("jobs: executor needs a cluster client")
	}
	if len(e.Backends) == 0 {
		return errors.New("jobs: executor needs at least one backend")
	}
	if e.Key == nil {
		return errors.New("jobs: executor needs a private key")
	}
	return nil
}

// Run executes the plan's steps in order, tagging every query with id, and
// finishes the result locally. A failed step fails the whole job — never a
// partial result, mirroring the aggregator's all-or-nothing contract.
func (e *Executor) Run(ctx context.Context, plan *Plan, id trace.ID) (res *Result, err error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, errors.New("jobs: nil plan")
	}
	tr := trace.New("")
	tr.SetID(id)
	tr.SetRole("gateway")
	tr.Annotate("op", plan.Op)
	tr.Annotate("steps", strconv.Itoa(len(plan.Steps)))
	defer func() {
		tr.Finish(err)
		e.Traces.Add(tr)
	}()

	// The gateway checked this at submit; a plan handed to Run by anyone
	// else is checked here, before a query can wrap mod N.
	if err := checkPlaintextBounds(plan, e.Key.PublicKey()); err != nil {
		return nil, err
	}

	sums := make([][]*big.Int, len(plan.Steps))
	for i, st := range plan.Steps {
		start := time.Now()
		got, qerr := e.Client.QueryColumns(ctx, e.Backends, e.Key, cluster.QuerySpec{
			Sel:       st.Sel,
			ChunkSize: e.ChunkSize,
			Pool:      e.Pool,
			Weight:    st.Weight,
			Columns:   st.Columns,
			TraceID:   [16]byte(id),
		})
		attrs := map[string]string{
			"columns":  st.Columns.String(),
			"selected": strconv.Itoa(st.Sel.Count()),
		}
		if qerr != nil {
			attrs["error"] = qerr.Error()
		}
		tr.Observe(st.Label, start, time.Since(start), attrs)
		if qerr != nil {
			return nil, fmt.Errorf("jobs: step %s: %w", st.Label, qerr)
		}
		sums[i] = got
		if plan.Checkpoint != nil {
			plan.Checkpoint(st.Label)
		}
	}
	return plan.finish(sums)
}
