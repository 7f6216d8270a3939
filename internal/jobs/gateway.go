package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"privstats/internal/durable"
	"privstats/internal/metrics"
	"privstats/internal/trace"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// ErrUnknownTenant rejects a submission from an unconfigured identity.
var ErrUnknownTenant = errors.New("jobs: unknown tenant")

// QuotaError is a policy rejection (token bucket or queue cap), rendered
// with the "[quota]" code so clients can back off without parsing prose.
type QuotaError struct {
	Tenant string
	Reason string
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("[quota] tenant %s: %s", e.Tenant, e.Reason)
}

// Job is one submission's status. It carries only plaintext the submitting
// analyst is entitled to — the spec's shape, the job's lifecycle, and (when
// done) the decrypted result. Never ciphertext.
type Job struct {
	// ID is the job identifier — the hex form of the trace ID every hop of
	// the fan-out records under, so one string joins gateway, aggregator,
	// and shard views.
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	State  string `json:"state"`
	// Error carries the failure (with its classified "[code]" intact) for
	// failed jobs.
	Error     string    `json:"error,omitempty"`
	Result    *Result   `json:"result,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// GatewayConfig wires a Gateway.
type GatewayConfig struct {
	// Schema describes the served table (required).
	Schema Schema
	// Exec runs plans (required).
	Exec *Executor
	// Tenants is the admission policy (required, at least one).
	Tenants []Tenant
	// Slots is the number of concurrently executing jobs; 0 means 2.
	Slots int
	// MaxJobs bounds retained job statuses; 0 means 1024. When full, the
	// oldest finished job is evicted.
	MaxJobs int
	// JobTimeout bounds one job's execution; 0 means no deadline.
	JobTimeout time.Duration
	// StoreDir, when set, makes the job store crash-safe: every lifecycle
	// transition is journaled (and fsynced) under this directory before it
	// is acknowledged, and a restart replays the journal — finished jobs
	// come back verbatim, mid-flight jobs are re-executed or classified
	// "[interrupted]". Empty keeps the store memory-only.
	StoreDir string
	// Metrics receives per-tenant counters; nil allocates a private one.
	Metrics *metrics.JobMetrics
	// Logf is the gateway log sink; nil discards.
	Logf func(string, ...any)
}

// Gateway is the multi-tenant job front end: Submit validates, plans, and
// queues; a fair-share semaphore admits queued jobs to execution slots;
// Status (and the HTTP handler) expose lifecycle and results.
type Gateway struct {
	cfg     GatewayConfig
	tenants *tenantSet
	sem     *FairSemaphore
	m       *metrics.JobMetrics
	logf    func(string, ...any)
	now     func() time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string                   // insertion order, for bounded eviction
	queued map[string]int             // per-tenant admitted-but-unfinished jobs
	specs  map[string]json.RawMessage // spec JSON of unfinished jobs, for journal compaction
	// evictions counts jobs dropped from the store since the last journal
	// compaction; the journal still carries their dead records.
	evictions int

	// journaling is true when a StoreDir was configured; immutable after
	// construction, so it is the lock-free fast-path check.
	journaling bool
	walMu      sync.Mutex // serializes journal appends with compaction swaps; taken before mu
	wal        *durable.Journal
	pending    []recoveredPending // mid-flight jobs replayed at startup, launched once
}

// NewGateway builds a gateway; it validates the whole configuration before
// accepting anything.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Schema.Rows <= 0 || len(cfg.Schema.Columns) == 0 {
		return nil, errors.New("jobs: gateway needs a schema with rows and columns")
	}
	if cfg.Exec == nil {
		return nil, errors.New("jobs: gateway needs an executor")
	}
	if err := cfg.Exec.validate(); err != nil {
		return nil, err
	}
	cfg.Schema.PlaintextBits = cfg.Exec.Key.PublicKey().PlaintextSpace().BitLen()
	set, err := newTenantSet(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	if cfg.Slots == 0 {
		cfg.Slots = 2
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.Slots < 0 || cfg.MaxJobs < 0 || cfg.JobTimeout < 0 {
		return nil, errors.New("jobs: negative gateway knob")
	}
	sem, err := NewFairSemaphore(cfg.Slots)
	if err != nil {
		return nil, err
	}
	m := cfg.Metrics
	if m == nil {
		m = &metrics.JobMetrics{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:        cfg,
		tenants:    set,
		sem:        sem,
		m:          m,
		logf:       logf,
		now:        time.Now,
		ctx:        ctx,
		cancel:     cancel,
		jobs:       make(map[string]*Job),
		queued:     make(map[string]int),
		specs:      make(map[string]json.RawMessage),
		journaling: cfg.StoreDir != "",
	}
	if g.journaling {
		if err := g.openStore(cfg.StoreDir); err != nil {
			cancel()
			return nil, err
		}
		g.launchRecovered()
	}
	return g, nil
}

// Metrics returns the per-tenant counter registry (for /metrics mounting).
func (g *Gateway) Metrics() *metrics.JobMetrics { return g.m }

// Close stops accepting, cancels running jobs, waits for workers, and
// closes the store journal.
func (g *Gateway) Close() {
	g.cancel()
	g.wg.Wait()
	g.walMu.Lock()
	if g.wal != nil {
		if err := g.wal.Close(); err != nil {
			g.logf("jobs: closing store journal: %v", err)
		}
		g.wal = nil
	}
	g.walMu.Unlock()
}

// Submit admits one job for tenant. On success the returned snapshot is in
// the queued state; poll Status with its ID. Rejections are classified:
// ErrUnknownTenant, *QuotaError ("[quota]"), or *BadJobError ("[bad-job]").
func (g *Gateway) Submit(tenant string, spec *JobSpec) (Job, error) {
	ts, ok := g.tenants.lookup(tenant)
	if !ok {
		// Deliberately NOT counted in per-tenant metrics: an unknown name
		// would let a client mint unbounded label cardinality.
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	tm := g.m.Tenant(tenant)
	tm.Submitted.Inc()

	if !ts.takeToken(g.now()) {
		tm.Rejected.Inc()
		return Job{}, &QuotaError{Tenant: tenant, Reason: "submission rate exceeded"}
	}
	if spec == nil {
		tm.Rejected.Inc()
		return Job{}, badJob("spec", "missing")
	}
	plan, err := g.plan(spec)
	if err != nil {
		tm.Rejected.Inc()
		return Job{}, err
	}

	id := trace.NewID()
	job := &Job{
		ID:        id.String(),
		Tenant:    tenant,
		Op:        plan.Op,
		State:     StateQueued,
		Submitted: g.now(),
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		tm.Rejected.Inc()
		return Job{}, fmt.Errorf("jobs: encoding spec: %w", err)
	}

	// Admission is journal-then-store under walMu: the submitted record is
	// fsynced BEFORE the job becomes visible, so every acknowledged job ID
	// exists after a kill, and compaction (which snapshots the store while
	// holding walMu) can never drop a record journaled but not yet stored.
	g.walMu.Lock()
	g.mu.Lock()
	if g.queued[tenant] >= ts.cfg.MaxQueued {
		g.mu.Unlock()
		g.walMu.Unlock()
		tm.Rejected.Inc()
		return Job{}, &QuotaError{Tenant: tenant, Reason: fmt.Sprintf("%d jobs already queued (cap %d)", ts.cfg.MaxQueued, ts.cfg.MaxQueued)}
	}
	g.queued[tenant]++
	g.mu.Unlock()
	if err := g.journalSubmitted(job, raw); err != nil {
		g.mu.Lock()
		g.queued[tenant]--
		g.mu.Unlock()
		g.walMu.Unlock()
		tm.Rejected.Inc()
		return Job{}, err
	}
	g.mu.Lock()
	g.storeLocked(job)
	g.specs[job.ID] = raw
	snapshot := *job
	g.mu.Unlock()
	g.maybeCompactLocked()
	g.walMu.Unlock()

	tm.Admitted.Inc()
	tm.Queued.Inc()
	admitted := g.now()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.run(job, plan, id, ts.cfg.Weight, tm, admitted)
	}()
	return snapshot, nil
}

// plan maps spec onto queries and rejects, before anything is acknowledged or
// journaled, a plan whose replies the executor's key cannot hold.
func (g *Gateway) plan(spec *JobSpec) (*Plan, error) {
	plan, err := BuildPlan(spec, g.cfg.Schema)
	if err != nil {
		return nil, err
	}
	if err := checkPlaintextBounds(plan, g.cfg.Exec.Key.PublicKey()); err != nil {
		return nil, err
	}
	return plan, nil
}

// run is one job's worker: fair-share admission, execution, bookkeeping.
func (g *Gateway) run(job *Job, plan *Plan, id trace.ID, weight int, tm *metrics.TenantJobs, admitted time.Time) {
	finish := func(res *Result, err error) {
		// The counters move before the final state is published, so a
		// caller that has seen the job finish also sees it counted.
		now := g.now()
		tm.Queued.Dec()
		tm.JobNanos.ObserveDuration(now.Sub(admitted))
		if err != nil {
			tm.Failed.Inc()
		} else {
			tm.Completed.Inc()
		}
		g.mu.Lock()
		job.Finished = now
		if err != nil {
			job.State = StateFailed
			job.Error = err.Error()
		} else {
			job.State = StateDone
			job.Result = res
		}
		g.queued[job.Tenant]--
		delete(g.specs, job.ID)
		rec := finishedRec{ID: job.ID, Finished: now, Result: job.Result, Error: job.Error}
		g.mu.Unlock()
		g.journalAppend(recFinished, rec)
		if err != nil {
			g.logf("jobs: %s (%s/%s) failed: %v", job.ID, job.Tenant, job.Op, err)
		}
	}

	if err := g.sem.Acquire(g.ctx, job.Tenant, weight); err != nil {
		finish(nil, fmt.Errorf("jobs: admission: %w", err))
		return
	}
	defer g.sem.Release()

	now := g.now()
	g.mu.Lock()
	job.State = StateRunning
	job.Started = now
	g.mu.Unlock()
	g.journalAppend(recStarted, startedRec{ID: job.ID, Started: now})
	if g.journaling {
		plan.Checkpoint = func(step string) {
			g.journalAppend(recStep, stepRec{ID: job.ID, Step: step})
		}
	}

	ctx := g.ctx
	if g.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.JobTimeout)
		defer cancel()
	}
	res, err := g.cfg.Exec.Run(ctx, plan, id)
	finish(res, err)
}

// storeLocked inserts a job, evicting the oldest finished jobs when over
// the cap. The insertion-order slice is compacted in the same pass, so its
// length tracks the live job count instead of growing with every submission.
// Running jobs are never evicted: the store exceeds the cap only while more
// than MaxJobs jobs are genuinely unfinished.
func (g *Gateway) storeLocked(job *Job) {
	g.jobs[job.ID] = job
	g.order = append(g.order, job.ID)
	if len(g.jobs) <= g.cfg.MaxJobs {
		return
	}
	kept := g.order[:0]
	for _, id := range g.order {
		j := g.jobs[id]
		if j == nil {
			g.evictions++
			continue
		}
		if len(g.jobs) > g.cfg.MaxJobs && (j.State == StateDone || j.State == StateFailed) {
			delete(g.jobs, id)
			delete(g.specs, id)
			g.evictions++
			continue
		}
		kept = append(kept, id)
	}
	g.order = kept
}

// Status returns a snapshot of the job, if it is still retained.
func (g *Gateway) Status(id string) (Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// jobsDoc is the list-response envelope: lifecycle only, no results — a
// result belongs to the job's own status document.
type jobsDoc struct {
	Jobs []jobListEntry `json:"jobs"`
}

type jobListEntry struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	State  string `json:"state"`
}

// TenantHeader names the submit identity header.
const TenantHeader = "X-Tenant"

// Handler serves the gateway's HTTP surface, rooted at the mount point:
//
//	POST {root}           submit (X-Tenant header, JSON JobSpec body) → 202
//	GET  {root}           list retained jobs (lifecycle only)
//	GET  {root}/{id}      one job's status and result
//
// Mount under server.StatsMux via its Jobs field, which strips the /jobs
// prefix.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := strings.Trim(r.URL.Path, "/")
		switch {
		case path == "" && r.Method == http.MethodPost:
			g.handleSubmit(w, r)
		case path == "" && r.Method == http.MethodGet:
			g.handleList(w)
		case path != "" && r.Method == http.MethodGet:
			g.handleStatus(w, path)
		default:
			httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	})
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		httpError(w, http.StatusBadRequest, "missing "+TenantHeader+" header")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	spec, err := DecodeJobSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := g.Submit(tenant, spec)
	if err != nil {
		var quota *QuotaError
		var bad *BadJobError
		switch {
		case errors.Is(err, ErrUnknownTenant):
			httpError(w, http.StatusForbidden, err.Error())
		case errors.As(err, &quota):
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.As(err, &bad):
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, job)
}

func (g *Gateway) handleList(w http.ResponseWriter) {
	g.mu.Lock()
	doc := jobsDoc{Jobs: make([]jobListEntry, 0, len(g.order))}
	for _, id := range g.order {
		if j := g.jobs[id]; j != nil {
			doc.Jobs = append(doc.Jobs, jobListEntry{ID: j.ID, Tenant: j.Tenant, Op: j.Op, State: j.State})
		}
	}
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, doc)
}

func (g *Gateway) handleStatus(w http.ResponseWriter, id string) {
	job, ok := g.Status(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, job)
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, map[string]string{"error": msg})
}
