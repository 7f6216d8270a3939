package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"privstats/internal/durable"
	"privstats/internal/trace"
)

// Job journal: every lifecycle transition of every job is appended (and
// fsynced) to a write-ahead journal under the gateway's store directory
// BEFORE it is acknowledged, so a SIGKILL never silently drops a job the
// client was told about. On restart the journal is replayed to rebuild the
// store: finished jobs are restored verbatim, jobs caught mid-execution are
// re-planned and re-executed (queries are read-only, so re-execution is
// idempotent) or classified "[interrupted]" when past their deadline —
// never a partial or wrong statistic. After replay the journal is compacted
// to the retained jobs, so it cannot grow without bound across restarts.

// Journal record types.
const (
	recSubmitted byte = 1 // job admitted: identity + the spec to re-plan from
	recStarted   byte = 2 // job took an execution slot
	recStep      byte = 3 // one plan step (cluster query) completed
	recFinished  byte = 4 // terminal: result (done) or classified error (failed)
)

// journalName is the journal file under the store directory.
const journalName = "jobs.wal"

// CodeInterrupted classifies a job that was mid-execution at a crash and
// could not be transparently re-executed after restart. It joins the wire
// layer's "[code] message" convention so clients can classify without
// parsing prose.
const CodeInterrupted = "[interrupted]"

// submittedRec journals an admitted job. Spec carries the original JobSpec
// JSON so a restart can re-plan it.
type submittedRec struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Op        string          `json:"op"`
	Submitted time.Time       `json:"submitted"`
	Spec      json.RawMessage `json:"spec"`
}

// startedRec journals a job entering execution.
type startedRec struct {
	ID      string    `json:"id"`
	Started time.Time `json:"started"`
}

// stepRec journals one completed plan step — a checkpoint. Replay does not
// need it to decide anything (re-execution is idempotent end to end); it
// exists so operators can see how far a crashed job had progressed.
type stepRec struct {
	ID   string `json:"id"`
	Step string `json:"step"`
}

// finishedRec journals a terminal state: exactly one of Result or Error.
type finishedRec struct {
	ID       string    `json:"id"`
	Finished time.Time `json:"finished"`
	Result   *Result   `json:"result,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// replayedJob accumulates one job's records during replay.
type replayedJob struct {
	job   Job
	spec  json.RawMessage
	steps int
}

// replayState rebuilds the job table from a journal stream.
type replayState struct {
	jobs map[string]*replayedJob
}

// apply consumes one journal record. Unknown types and records for unknown
// IDs are tolerated (skipped): the journal outlives code versions, and a
// best-effort replay that recovers every intact job beats a brittle one.
func (s *replayState) apply(typ byte, payload []byte) error {
	switch typ {
	case recSubmitted:
		var r submittedRec
		if err := json.Unmarshal(payload, &r); err != nil || r.ID == "" {
			return nil
		}
		s.jobs[r.ID] = &replayedJob{
			job: Job{
				ID:        r.ID,
				Tenant:    r.Tenant,
				Op:        r.Op,
				State:     StateQueued,
				Submitted: r.Submitted,
			},
			spec: r.Spec,
		}
	case recStarted:
		var r startedRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil
		}
		if j := s.jobs[r.ID]; j != nil && j.job.State == StateQueued {
			j.job.State = StateRunning
			j.job.Started = r.Started
		}
	case recStep:
		var r stepRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil
		}
		if j := s.jobs[r.ID]; j != nil {
			j.steps++
		}
	case recFinished:
		var r finishedRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil
		}
		if j := s.jobs[r.ID]; j != nil {
			j.job.Finished = r.Finished
			if r.Error != "" {
				j.job.State = StateFailed
				j.job.Error = r.Error
			} else {
				j.job.State = StateDone
				j.job.Result = r.Result
			}
		}
	}
	return nil
}

// sortedJobs returns the replayed jobs in submission order, so the rebuilt
// store preserves the original insertion (and eviction) order.
func (s *replayState) sortedJobs() []*replayedJob {
	out := make([]*replayedJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].job.Submitted.Equal(out[k].job.Submitted) {
			return out[i].job.Submitted.Before(out[k].job.Submitted)
		}
		return out[i].job.ID < out[k].job.ID
	})
	return out
}

// recoveredPending is one mid-flight job queued for re-execution after
// replay.
type recoveredPending struct {
	job  *Job
	plan *Plan
	id   trace.ID
}

// openStore validates the store directory, replays the journal into the
// gateway's job table, classifies mid-flight jobs, compacts the journal to
// the retained set, and leaves the gateway's journal open for appending.
// Every failure here is an operator-facing error surfaced before any socket
// opens: an unwritable directory or a corrupt (non-journal) file must stop
// the daemon, not silently serve an empty store.
func (g *Gateway) openStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: store dir: %w", err)
	}
	path := filepath.Join(dir, journalName)

	state := &replayState{jobs: make(map[string]*replayedJob)}
	wal, stats, err := durable.Open(path, state.apply)
	if err != nil {
		return fmt.Errorf("jobs: store journal: %w", err)
	}
	// Replay is done; the compaction below rewrites the file, so release
	// this handle first.
	if err := wal.Close(); err != nil {
		return fmt.Errorf("jobs: store journal: %w", err)
	}

	g.m.ReplayedBytes.Add(stats.Bytes)
	if stats.TornTail {
		g.m.TornTail.Inc()
	}

	now := g.now()
	var finished, reexec, interrupted int
	for _, rj := range state.sortedJobs() {
		job := rj.job // copy
		switch job.State {
		case StateDone, StateFailed:
			finished++
			g.storeLocked(&job)
		default:
			// Mid-flight at the crash. Queries are read-only, so re-running
			// the whole plan is safe and yields the exact statistic — unless
			// the job is already past its deadline or its spec no longer
			// plans against the served schema, in which case it is classified
			// [interrupted]: a clean failure, never a partial result.
			if reason := g.classifyInterrupted(&job, rj, now); reason != "" {
				interrupted++
				job.State = StateFailed
				job.Error = fmt.Sprintf("%s %s", CodeInterrupted, reason)
				job.Finished = now
				g.storeLocked(&job)
				continue
			}
			spec, perr := DecodeJobSpec(rj.spec)
			var plan *Plan
			if perr == nil {
				plan, perr = g.plan(spec)
			}
			if perr != nil {
				interrupted++
				job.State = StateFailed
				job.Error = fmt.Sprintf("%s spec no longer plannable after restart: %v", CodeInterrupted, perr)
				job.Finished = now
				g.storeLocked(&job)
				continue
			}
			id, perr := trace.ParseID(job.ID)
			if perr != nil {
				id = trace.NewID()
			}
			reexec++
			job.State = StateQueued
			job.Started = time.Time{}
			g.storeLocked(&job)
			g.specs[job.ID] = rj.raw()
			g.queued[job.Tenant]++
			g.pending = append(g.pending, recoveredPending{job: &job, plan: plan, id: id})
			if rj.steps > 0 {
				g.logf("jobs: re-executing %s (%s/%s): crashed %d steps in", job.ID, job.Tenant, job.Op, rj.steps)
			}
		}
	}
	recovered := finished + reexec + interrupted
	g.m.Recovered.Add(int64(recovered))

	// Compact: rewrite the retained jobs (and only them) so the journal
	// stays proportional to the store, then reopen for appending.
	if err := g.compactJournal(path); err != nil {
		return err
	}
	wal, _, err = durable.Open(path, nil)
	if err != nil {
		return fmt.Errorf("jobs: reopening compacted journal: %w", err)
	}
	g.wal = wal

	if recovered > 0 || stats.TornTail {
		tail := ""
		if stats.TornTail {
			tail = ", torn tail dropped"
		}
		g.logf("jobs: recovered %d jobs from %s (%d finished, %d re-executed, %d interrupted, %d bytes replayed%s)",
			recovered, path, finished, reexec, interrupted, stats.Bytes, tail)
	}
	return nil
}

// raw returns the job's spec bytes, or an empty JSON object when the
// journal predates them (replay keeps whatever it can).
func (rj *replayedJob) raw() json.RawMessage {
	if len(rj.spec) == 0 {
		return json.RawMessage("{}")
	}
	return rj.spec
}

// classifyInterrupted decides whether a mid-flight job should be classified
// instead of re-executed. Returns the reason, or "" to re-execute.
func (g *Gateway) classifyInterrupted(job *Job, rj *replayedJob, now time.Time) string {
	if g.cfg.JobTimeout > 0 && now.Sub(job.Submitted) > g.cfg.JobTimeout {
		return fmt.Sprintf("mid-execution at crash and past its %v deadline", g.cfg.JobTimeout)
	}
	if len(rj.spec) == 0 {
		return "journal holds no spec to re-plan"
	}
	if _, ok := g.tenants.lookup(job.Tenant); !ok {
		return fmt.Sprintf("tenant %q no longer configured", job.Tenant)
	}
	return ""
}

// launchRecovered starts the re-execution workers for jobs recovered
// mid-flight. Called once, after the gateway is fully constructed; the jobs
// are already stored, counted in queued, and journaled.
func (g *Gateway) launchRecovered() {
	for _, p := range g.pending {
		tm := g.m.Tenant(p.job.Tenant)
		tm.Queued.Inc()
		weight := 1
		if ts, ok := g.tenants.lookup(p.job.Tenant); ok {
			weight = ts.cfg.Weight
		}
		p := p
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.run(p.job, p.plan, p.id, weight, tm, g.now())
		}()
	}
	g.pending = nil
}

// journalSubmitted durably records an admitted job; failure rejects the
// submission (the gateway must never acknowledge a job it could lose).
// Callers hold walMu.
func (g *Gateway) journalSubmitted(job *Job, spec json.RawMessage) error {
	if !g.journaling {
		return nil
	}
	if g.wal == nil {
		// The journal died under us (disk error on a compaction reopen);
		// refusing beats acknowledging jobs that cannot survive a crash.
		return errors.New("jobs: store journal unavailable after disk error")
	}
	payload, err := json.Marshal(submittedRec{
		ID: job.ID, Tenant: job.Tenant, Op: job.Op, Submitted: job.Submitted, Spec: spec,
	})
	if err != nil {
		return fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	if err := g.wal.Append(recSubmitted, payload); err != nil {
		return fmt.Errorf("jobs: journaling submission: %w", err)
	}
	return nil
}

// journalAppend best-effort-appends a non-acknowledgment record (started,
// step, finished). A failure here is logged, not fatal: the job's outcome
// is still correct in memory, and replay treats a missing transition as
// mid-flight, which re-executes idempotently.
func (g *Gateway) journalAppend(typ byte, v any) {
	if !g.journaling {
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		g.logf("jobs: encoding journal record: %v", err)
		return
	}
	g.walMu.Lock()
	defer g.walMu.Unlock()
	if g.wal == nil {
		return
	}
	if err := g.wal.Append(typ, payload); err != nil {
		g.logf("jobs: journal append: %v", err)
	}
}

// compactThreshold is how many evictions accumulate before the journal is
// rewritten to the retained set; amortizes compaction to O(1) per job.
const compactThreshold = 256

// compactJournal rewrites the journal to exactly the retained jobs. Callers
// must guarantee no concurrent appends (startup, or holding walMu).
func (g *Gateway) compactJournal(path string) error {
	g.mu.Lock()
	type kept struct {
		sub submittedRec
		fin *finishedRec
	}
	rows := make([]kept, 0, len(g.order))
	for _, id := range g.order {
		j := g.jobs[id]
		if j == nil {
			continue
		}
		row := kept{sub: submittedRec{
			ID: j.ID, Tenant: j.Tenant, Op: j.Op, Submitted: j.Submitted, Spec: g.specs[j.ID],
		}}
		if j.State == StateDone || j.State == StateFailed {
			row.fin = &finishedRec{ID: j.ID, Finished: j.Finished, Result: j.Result, Error: j.Error}
			if j.State == StateFailed && row.fin.Error == "" {
				row.fin.Error = "[protocol] failed with no recorded error"
			}
		}
		rows = append(rows, row)
	}
	g.evictions = 0
	g.mu.Unlock()

	err := durable.Rewrite(path, func(j *durable.Journal) error {
		for _, row := range rows {
			payload, err := json.Marshal(row.sub)
			if err != nil {
				return err
			}
			if err := j.Append(recSubmitted, payload); err != nil {
				return err
			}
			if row.fin == nil {
				continue
			}
			payload, err = json.Marshal(row.fin)
			if err != nil {
				return err
			}
			if err := j.Append(recFinished, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	return nil
}

// maybeCompactLocked rewrites and reopens the journal once enough evicted
// jobs have accumulated as dead records. Callers hold walMu.
func (g *Gateway) maybeCompactLocked() {
	g.mu.Lock()
	due := g.evictions >= compactThreshold
	g.mu.Unlock()
	if !due || g.wal == nil {
		return
	}
	path := g.wal.Path()
	if err := g.wal.Close(); err != nil {
		g.logf("jobs: closing journal for compaction: %v", err)
	}
	if err := g.compactJournal(path); err != nil {
		g.logf("jobs: %v", err)
	}
	wal, _, err := durable.Open(path, nil)
	if err != nil {
		// Disk just failed under us; keep serving from memory.
		g.logf("jobs: reopening compacted journal: %v", err)
		g.wal = nil
		return
	}
	g.wal = wal
}
