package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strconv"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/selectedsum"
	"privstats/internal/trace"
	"privstats/internal/wire"
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

// Run executes the plan's steps against the cluster through RunPlan, tagging
// every query with id and recording one span per step.
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

	return RunPlan(ctx, plan, e.Key.PublicKey(), func(ctx context.Context, st Step) ([]*big.Int, error) {
		start := time.Now()
		got, err := e.Client.QueryColumns(ctx, e.Backends, e.Key, cluster.QuerySpec{
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
		if err != nil {
			attrs["error"] = err.Error()
		}
		tr.Observe(st.Label, start, time.Since(start), attrs)
		return got, err
	})
}

// StepRunner answers one step of a plan: it uploads the step's selection
// (weighted by st.Weight when set), has it folded against st.Columns, and
// returns the decrypted sums, one per column in ascending bit order.
type StepRunner func(ctx context.Context, st Step) ([]*big.Int, error)

// RunPlan executes plan's steps in order through query and finishes the
// result locally. pk is the key the steps' uploads are encrypted under: a
// plan whose replies could exceed its plaintext space is refused before any
// query, since the reply would wrap mod N into a silently wrong statistic. A
// failed step fails the whole job — never a partial result, mirroring the
// aggregator's all-or-nothing contract.
func RunPlan(ctx context.Context, plan *Plan, pk homomorphic.PublicKey, query StepRunner) (*Result, error) {
	if plan == nil {
		return nil, errors.New("jobs: nil plan")
	}
	// The gateway checked this at submit; a plan handed over by anyone else
	// is checked here.
	if err := checkPlaintextBounds(plan, pk); err != nil {
		return nil, err
	}
	sums := make([][]*big.Int, len(plan.Steps))
	for i, st := range plan.Steps {
		got, err := query(ctx, st)
		if err != nil {
			return nil, fmt.Errorf("jobs: step %s: %w", st.Label, err)
		}
		sums[i] = got
		if plan.Checkpoint != nil {
			plan.Checkpoint(st.Label)
		}
	}
	return plan.finish(sums)
}

// InProcess is a StepRunner that answers every step in this process on the
// deployable engine: selectedsum.QueryVector under sk against
// selectedsum.ServeSource over src, joined by net.Pipe — the shape
// selectedsum.Run times. Each step is one session and one chunk, encrypted
// by the best online route sk offers; ctx is checked before each session.
func InProcess(sk homomorphic.PrivateKey, src database.Source) StepRunner {
	return func(ctx context.Context, st Step) ([]*big.Int, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vec := selectedsum.SelectionSource(sk, st.Sel, nil)
		if st.Weight != nil {
			vec = selectedsum.PackedSelectionSource(sk, st.Sel, st.Weight, nil)
		}
		a, b := net.Pipe()
		client, server := wire.NewConn(a), wire.NewConn(b)
		served := make(chan error, 1)
		go func() {
			served <- selectedsum.ServeSource(server, src, nil)
			server.Close()
		}()
		sums, err := selectedsum.QueryVector(client, sk, vec, 0, st.Columns)
		client.Close()
		if srvErr := <-served; err == nil && srvErr != nil {
			err = srvErr
		}
		if err != nil {
			return nil, err
		}
		return sums, nil
	}
}
