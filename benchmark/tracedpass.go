package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/trace"
)

// tracedPass produces the per-layer metrics. Its time is split between the
// live closed loop without and with the program's tracing (their ratio is the
// tracing overhead, the drained runtimes' counters are the live layer
// counts), the staged replay, and the micro-probes. Nothing here feeds an
// end-to-end metric.
func tracedPass(ctx context.Context, w workload, seed int64, d time.Duration, workDir, outDir string) (*passResult, error) {
	out := make(map[string]metric)
	res := &passResult{Metrics: out}

	plain, st, err := livePhase(ctx, w, seed, filepath.Join(workDir, "plain"), nil, d/20, d/5)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	liveCounters(st, out)
	rec := trace.NewRecorder(trace.DefaultRingSize)
	traced, _, err := livePhase(ctx, w, seed, filepath.Join(workDir, "traced"), rec, d/20, d/5)
	if err != nil {
		return nil, err
	}
	if rec.Total() == 0 {
		return nil, fmt.Errorf("%s: tracing was on and no trace was recorded", w.name)
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	out["trace.overhead_ratio"] = metric{traced.opsPerSec / plain.opsPerSec, "ratio"}

	rows := float64(plain.rows)
	out["proc.alloc_bytes_per_row"] = metric{float64(plain.mem.TotalAlloc) / rows, "B"}
	out["proc.mallocs_per_row"] = metric{float64(plain.mem.Mallocs) / rows, "count"}
	out["proc.gc_pause_ms"] = metric{float64(plain.mem.PauseTotalNs) / 1e6, "ms"}
	out["proc.host_slowdown"] = metric{plain.slowdown, "ratio"}
	tailValue, tailPct := tail(plain.latencies)
	out["client.latency_tail_s"] = metric{tailValue.Seconds(), "s"}
	out["client.latency_tail_pct"] = metric{tailPct, "%"}
	out["client.latency_samples"] = metric{float64(len(plain.latencies)), "count"}

	// The probes work on the workload's key, table and storage kind.
	env := &probeEnv{w: w, sk: st.sk, key: st.key, table: st.table, slab: st.slab, src: st.table, chunk: w.chunk}
	if env.chunk <= 0 || env.chunk > w.n {
		env.chunk = w.n
	}
	build := timeOnce(func() { env.store, err = buildStore(st.table, filepath.Join(workDir, "probe-store"), 0) })
	if err != nil {
		return nil, err
	}
	defer env.store.Close()
	out["colstore.build_s"] = metric{build.Seconds(), "s"}
	if w.colstore {
		env.src = env.store
	}
	env.enc = selectedsum.OwnerOnline{SK: paillier.SchemeKey{SK: st.sk}}
	if w.pooled {
		env.enc = selectedsum.Pooled{Pool: st.newPool()}
	}

	log := newSpanLog()
	ops, err := stagedReplay(env, seed, d/10, log)
	if err != nil {
		return nil, err
	}
	if err := log.writeFile(filepath.Join(mkdirAll(outDir), "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	stagedMetrics(w, stageMeans(log), ops, plain, out)

	pipe, err := sessionPipe(env, st.newPool(), seed)
	if err != nil {
		return nil, err
	}
	out["selectedsum.session_pipe_s"] = metric{pipe.Seconds(), "s"}
	if err := microProbes(env, d/125, workDir, out); err != nil {
		return nil, fmt.Errorf("micro-probes: %w", err)
	}
	if err := variantProbes(ctx, w, st, seed, d, workDir, out); err != nil {
		return nil, fmt.Errorf("variant probes: %w", err)
	}
	if err := stockProbe(ctx, st.sk, out); err != nil {
		return nil, fmt.Errorf("stock probe: %w", err)
	}
	return res, nil
}

// livePhase sets w up under dir, drives its closed loop for warm, unrecorded,
// and then for d, and returns that phase and the drained stack. rec, when
// non-nil, turns the program's tracing on in every runtime and client.
func livePhase(ctx context.Context, w workload, seed int64, dir string, rec *trace.Recorder, warm, d time.Duration) (*phase, *stack, error) {
	st, err := setUp(w, seed, dir, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	clients := st.newClients(seed, rec != nil)
	if warm > 0 {
		_, err = runPhase(ctx, st, clients, warm)
	}
	var ph *phase
	if err == nil {
		ph, err = runPhase(ctx, st, clients, d)
	}
	if downErr := st.shutDown(); err == nil {
		err = downErr
	}
	return ph, st, err
}

// liveCounters reads the drained runtimes' public counters.
func liveCounters(st *stack, out map[string]metric) {
	var completed, rejected int64
	count := func(m member) {
		sm := m.srv.Metrics()
		completed += sm.SessionsCompleted.Value()
		rejected += sm.SessionsRejected.Value()
	}
	for _, m := range st.backends {
		count(m)
	}
	if st.proxy != nil {
		count(*st.proxy)
	}
	out["server.sessions_completed"] = metric{float64(completed), "count"}
	out["server.sessions_rejected"] = metric{float64(rejected), "count"}

	// Mean fold time of one session on each backend: the slowest backend is a
	// query's critical path, the sum is its work.
	var maxAbsorb, sumAbsorb float64
	for _, m := range st.backends {
		mean := m.srv.Metrics().AbsorbNanos.Snapshot().Mean / 1e9
		maxAbsorb = max(maxAbsorb, mean)
		sumAbsorb += mean
	}
	out["cluster.max_shard_absorb_s"] = metric{maxAbsorb, "s"}
	out["cluster.sum_shard_absorb_s"] = metric{sumAbsorb, "s"}

	cm := st.client.Metrics()
	retries, failovers, hedged := cm.Retries.Value(), cm.Failovers.Value(), cm.HedgedDials.Value()
	if st.fanout != nil {
		fm := st.fanout.Metrics()
		retries += fm.Retries.Value()
		failovers += fm.Failovers.Value()
		hedged += fm.HedgedDials.Value()
		out["cluster.combine_us"] = metric{fm.CombineNanos.Snapshot().Mean / 1e3, "us"}
	}
	out["cluster.retries"] = metric{float64(retries), "count"}
	out["cluster.failovers"] = metric{float64(failovers), "count"}
	out["cluster.hedged_dials"] = metric{float64(hedged), "count"}
}

// stagedMetrics reports the paper's four components from the replay's stage
// means, and how much of the live pass's CPU per row they add up to.
func stagedMetrics(w workload, stages map[string]time.Duration, ops int, plain *phase, out map[string]metric) {
	out["selectedsum.client_encrypt_s"] = metric{stages[spanEncrypt].Seconds(), "s"}
	out["selectedsum.absorb_s"] = metric{stages[spanAbsorb].Seconds(), "s"}
	out["selectedsum.finalize_us"] = metric{us(stages[spanFinalize]), "us"}
	out["selectedsum.decrypt_us"] = metric{us(stages[spanDecrypt]), "us"}
	var staged time.Duration
	for name, d := range stages {
		if name != spanOp { // the root's self time is the harness's own
			staged += d
		}
	}
	stagedPerRow := staged.Seconds() / float64(w.n)
	cpuPerRow := plain.cpu.Seconds() / float64(plain.rows)
	out["trace.cpu_closure_ratio"] = metric{stagedPerRow / cpuPerRow, "ratio"}
	fmt.Fprintf(os.Stderr, "%s: staged replay, %d queries, mean %v each:\n", w.name, ops, staged)
	for _, name := range []string{spanEncrypt, spanEncode, spanFrame, spanDecode, spanHello, spanAbsorb, spanFinalize, spanDecrypt} {
		fmt.Fprintf(os.Stderr, "  %-36s %12v %5.1f%%\n", name, stages[name], 100*float64(stages[name])/float64(staged))
	}
}

// variantProbes measure a layer by running the workload's own op, on one
// client, against a deployment that differs from the workload's in that layer
// only.
func variantProbes(ctx context.Context, w workload, st *stack, seed int64, d time.Duration, workDir string, out map[string]metric) error {
	w.clients = 1
	variant := func(sub string, v workload, d time.Duration) (*phase, *stack, error) {
		return livePhase(ctx, v, seed, filepath.Join(workDir, sub), nil, 0, d)
	}

	// A one-row session is all per-session cost: dial, admission, hello and
	// key parse, rerandomize, reply, decrypt.
	oneRow := w
	oneRow.n, oneRow.chunk, oneRow.shards, oneRow.colstore, oneRow.jobs = 1, 0, 0, false, false
	ph, _, err := variant("one-row", oneRow, d/40)
	if err != nil {
		return err
	}
	out["server.session_overhead_us"] = metric{us(median(ph.latencies)), "us"}

	// The same query through an aggregator with a single shard, over the
	// query sent to that shard's server directly.
	direct := w
	direct.shards, direct.jobs = 0, false
	viaProxy := direct
	viaProxy.shards = 1
	ph, _, err = variant("direct", direct, d/10)
	if err != nil {
		return err
	}
	directLatency := median(ph.latencies)
	ph, proxied, err := variant("via-proxy", viaProxy, d/10)
	if err != nil {
		return err
	}
	out["cluster.k1_overhead_ratio"] = metric{float64(median(ph.latencies)) / float64(directLatency), "ratio"}
	if st.fanout == nil { // no aggregator in the live deployment to ask
		out["cluster.combine_us"] = metric{proxied.fanout.Metrics().CombineNanos.Snapshot().Mean / 1e3, "us"}
	}

	// Submitting a job: POST to 202, spec decode, plan and journal fsync
	// included, on a table small enough that running the job costs little.
	small := w
	small.n, small.shards, small.colstore, small.jobs = min(w.n, 256), 0, false, true
	ph, _, err = variant("jobs", small, d/20)
	if err != nil {
		return err
	}
	out["jobs.submit_us"] = metric{us(median(ph.submits)), "us"}
	return nil
}
