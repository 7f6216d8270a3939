package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/testutil"
	"privstats/internal/trace"
)

var (
	jkOnce sync.Once
	jkKey  *paillier.PrivateKey
	jkErr  error
)

// jobTestKey returns a shared 256-bit test key. Importing paillier also
// registers the scheme with the hello parser.
func jobTestKey(t testing.TB) homomorphic.PrivateKey {
	t.Helper()
	jkOnce.Do(func() { jkKey, jkErr = paillier.KeyGen(rand.Reader, 256) })
	if jkErr != nil {
		t.Fatalf("KeyGen: %v", jkErr)
	}
	return paillier.SchemeKey{SK: jkKey}
}

func discardLogf(string, ...any) {}

func serveOn(t *testing.T, srv *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		select {
		case <-errc:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return ln.Addr().String()
}

// startJobCluster shards table over k traced backends behind a traced
// aggregator and returns the proxy address plus every trace ring, so tests
// can assert one job ID is visible at every hop.
func startJobCluster(t *testing.T, table *database.Table, k int) (string, *trace.Recorder, []*trace.Recorder) {
	t.Helper()
	shardRecs := make([]*trace.Recorder, k)
	ranges := make([]cluster.Shard, k)
	lo := 0
	for i := 0; i < k; i++ {
		rows := table.Len() / k
		if i < table.Len()%k {
			rows++
		}
		ranges[i] = cluster.Shard{Lo: lo, Hi: lo + rows}
		lo += rows
	}
	for i, r := range ranges {
		shardTable, err := table.Shard(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		shardRecs[i] = trace.NewRecorder(64)
		srv, err := server.New(shardTable, server.Config{Logf: discardLogf, Traces: shardRecs[i]})
		if err != nil {
			t.Fatal(err)
		}
		ranges[i].Backends = []string{serveOn(t, srv)}
	}
	sm, err := cluster.NewShardMap(ranges)
	if err != nil {
		t.Fatal(err)
	}
	fanout := cluster.NewClient(cluster.ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond})
	agg, err := cluster.NewAggregator(sm, fanout)
	if err != nil {
		t.Fatal(err)
	}
	aggRec := trace.NewRecorder(64)
	srv, err := server.NewHandler(agg, server.Config{Logf: discardLogf, Traces: aggRec})
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv), aggRec, shardRecs
}

func testExecutor(t *testing.T, addr string) *Executor {
	t.Helper()
	return &Executor{
		Client:    cluster.NewClient(cluster.ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond}),
		Backends:  []string{addr},
		Key:       jobTestKey(t),
		ChunkSize: 32,
		Traces:    trace.NewRecorder(64),
	}
}

func oneTenant() []Tenant {
	return []Tenant{{Name: "acme", Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 64}}
}

// waitJob waits until the job reaches a final state and returns it.
func waitJob(t *testing.T, g *Gateway, id string) Job {
	t.Helper()
	var job Job
	testutil.Eventually(t, 60*time.Second, "job "+id+" to finish", func() bool {
		var ok bool
		if job, ok = g.Status(id); !ok {
			t.Fatalf("job %s vanished", id)
		}
		return job.State == StateDone || job.State == StateFailed
	})
	return job
}

// TestGatewayEndToEnd is the headline acceptance test: JobSpecs for sum,
// mean, variance, and groupby submitted to a gateway over a live k=2
// cluster match the plaintext oracle, and one job's trace ID is visible in
// the gateway, aggregator, AND both shard trace rings.
func TestGatewayEndToEnd(t *testing.T) {
	const n = 40
	table, err := database.Generate(n, database.DistUniform, 4242)
	if err != nil {
		t.Fatal(err)
	}
	addr, aggRec, shardRecs := startJobCluster(t, table, 2)
	exec := testExecutor(t, addr)
	g, err := NewGateway(GatewayConfig{
		Schema:  Schema{Rows: n, Columns: []string{"value"}},
		Exec:    exec,
		Tenants: oneTenant(),
		Slots:   2,
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	submit := func(spec *JobSpec) Job {
		t.Helper()
		job, err := g.Submit("acme", spec)
		if err != nil {
			t.Fatalf("Submit(%s): %v", spec.Op, err)
		}
		job = waitJob(t, g, job.ID)
		if job.State != StateDone {
			t.Fatalf("%s job failed: %s", spec.Op, job.Error)
		}
		return job
	}

	// Oracle selection: rows 3..31 — straddles the k=2 shard boundary.
	selSpec := SelectionSpec{Ranges: [][2]int{{3, 31}}}
	sel, err := (&selSpec).Build(n)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(sel.Count())
	S, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	Q, err := table.SelectedSumOfSquares(sel)
	if err != nil {
		t.Fatal(err)
	}

	job := submit(&JobSpec{Op: OpSum, Selection: selSpec})
	if job.Result.Sum != S.String() {
		t.Fatalf("sum %s, oracle %s", job.Result.Sum, S)
	}

	job = submit(&JobSpec{Op: OpMean, Columns: []string{"value"}, Selection: selSpec})
	wantMean := new(big.Rat).SetFrac(S, big.NewInt(m)).RatString()
	if job.Result.Mean != wantMean {
		t.Fatalf("mean %s, oracle %s", job.Result.Mean, wantMean)
	}

	varJob := submit(&JobSpec{Op: OpVariance, Selection: selSpec})
	num := new(big.Int).Mul(big.NewInt(m), Q)
	num.Sub(num, new(big.Int).Mul(S, S))
	wantVar := new(big.Rat).SetFrac(num, big.NewInt(m*m)).RatString()
	if varJob.Result.Variance != wantVar {
		t.Fatalf("variance %s, oracle %s", varJob.Result.Variance, wantVar)
	}
	if varJob.Result.SumSquares != Q.String() {
		t.Fatalf("sum of squares %s, oracle %s", varJob.Result.SumSquares, Q)
	}

	cov := submit(&JobSpec{Op: OpCovariance, Columns: []string{"value", "value"}, Selection: selSpec})
	if cov.Result.Covariance != wantVar {
		t.Fatalf("self-covariance %s, want variance %s", cov.Result.Covariance, wantVar)
	}

	// Group-by: rows mod 3, selection = all rows.
	labels := make([]int, n)
	wantGroup := make([]*big.Int, 3)
	counts := make([]int, 3)
	for i := range wantGroup {
		wantGroup[i] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		labels[i] = i % 3
		wantGroup[i%3].Add(wantGroup[i%3], big.NewInt(int64(table.Value(i))))
		counts[i%3]++
	}
	job = submit(&JobSpec{
		Op:        OpGroupBy,
		Selection: SelectionSpec{All: true},
		Params:    &GroupByParams{Labels: labels, Groups: 3},
	})
	if len(job.Result.Groups) != 3 {
		t.Fatalf("groups: %+v", job.Result.Groups)
	}
	for gi, row := range job.Result.Groups {
		if row.Sum != wantGroup[gi].String() || row.Count != counts[gi] {
			t.Fatalf("group %d: got %+v, want sum %s count %d", gi, row, wantGroup[gi], counts[gi])
		}
	}

	// One trace ID, every hop: the variance job (a single two-column query
	// over both shards) must appear in the gateway's, the aggregator's, and
	// BOTH shards' trace rings under the same ID.
	id, err := trace.ParseID(varJob.ID)
	if err != nil {
		t.Fatalf("job ID %q is not a trace ID: %v", varJob.ID, err)
	}
	rings := map[string]*trace.Recorder{
		"gateway": exec.Traces, "aggregator": aggRec,
		"shard0": shardRecs[0], "shard1": shardRecs[1],
	}
	for name, rec := range rings {
		testutil.Eventually(t, 10*time.Second, "trace "+varJob.ID+" in the "+name+" ring", func() bool {
			return len(rec.Find(id)) > 0
		})
	}

	// Counters: all five jobs admitted and completed, none failed.
	snap := g.Metrics().Tenant("acme")
	if snap.Submitted.Value() != 5 || snap.Completed.Value() != 5 || snap.Failed.Value() != 0 {
		t.Fatalf("acme counters: submitted %d completed %d failed %d",
			snap.Submitted.Value(), snap.Completed.Value(), snap.Failed.Value())
	}
	if snap.Queued.Value() != 0 {
		t.Fatalf("queue gauge %d after drain", snap.Queued.Value())
	}
}

// TestGatewayFairShare saturates one tenant and checks the other still
// completes, with the quota policy visible in the counters.
func TestGatewayFairShare(t *testing.T) {
	const n = 256
	table, err := database.Generate(n, database.DistUniform, 99)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startJobCluster(t, table, 2)
	g, err := NewGateway(GatewayConfig{
		Schema: Schema{Rows: n, Columns: []string{"value"}},
		Exec:   testExecutor(t, addr),
		Tenants: []Tenant{
			{Name: "hog", Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 2},
			{Name: "mouse", Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 8},
		},
		Slots: 1,
		Logf:  discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	spec := func() *JobSpec { return &JobSpec{Op: OpSum, Selection: SelectionSpec{All: true}} }

	// The hog floods five submissions: its queue cap admits two, rejects
	// three with the [quota] code. The cap counts unfinished jobs, so the
	// test holds the only slot until the flood is over: a hog job that
	// finished between two submissions would free a place in the queue.
	if err := g.sem.Acquire(context.Background(), "test", 1); err != nil {
		t.Fatal(err)
	}
	var hogJobs []string
	rejected := 0
	for i := 0; i < 5; i++ {
		job, err := g.Submit("hog", spec())
		if err != nil {
			var quota *QuotaError
			if !errors.As(err, &quota) {
				t.Fatalf("hog submit %d: %v", i, err)
			}
			if !strings.HasPrefix(err.Error(), "[quota] ") {
				t.Fatalf("quota error %q lacks code", err)
			}
			rejected++
			continue
		}
		hogJobs = append(hogJobs, job.ID)
	}
	g.sem.Release()
	if rejected != 3 {
		t.Fatalf("hog rejected %d of 5, want 3 (cap 2)", rejected)
	}

	// The mouse's jobs complete despite the saturated slot.
	oracle, err := table.SelectedSum(mustAll(t, n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		job, err := g.Submit("mouse", spec())
		if err != nil {
			t.Fatalf("mouse submit: %v", err)
		}
		done := waitJob(t, g, job.ID)
		if done.State != StateDone {
			t.Fatalf("mouse job failed: %s", done.Error)
		}
		if done.Result.Sum != oracle.String() {
			t.Fatalf("mouse sum %s, oracle %s", done.Result.Sum, oracle)
		}
	}
	for _, id := range hogJobs {
		if job := waitJob(t, g, id); job.State != StateDone {
			t.Fatalf("hog job failed: %s", job.Error)
		}
	}

	hog := g.Metrics().Tenant("hog")
	mouse := g.Metrics().Tenant("mouse")
	if hog.Submitted.Value() != 5 || hog.Admitted.Value() != 2 || hog.Rejected.Value() != 3 {
		t.Fatalf("hog counters: submitted %d admitted %d rejected %d",
			hog.Submitted.Value(), hog.Admitted.Value(), hog.Rejected.Value())
	}
	if mouse.Completed.Value() != 2 || mouse.Rejected.Value() != 0 {
		t.Fatalf("mouse counters: completed %d rejected %d",
			mouse.Completed.Value(), mouse.Rejected.Value())
	}
}

func mustAll(t *testing.T, n int) *database.Selection {
	t.Helper()
	sel, err := (&SelectionSpec{All: true}).Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestGatewaySubmitRejections(t *testing.T) {
	exec := &Executor{
		// A dead backend: admitted jobs fail fast, rejections never dial.
		Client:   cluster.NewClient(cluster.ClientConfig{Retries: 0, Backoff: time.Millisecond}),
		Backends: []string{"127.0.0.1:1"},
		Key:      jobTestKey(t),
	}
	g, err := NewGateway(GatewayConfig{
		Schema:  Schema{Rows: 10, Columns: []string{"value"}},
		Exec:    exec,
		Tenants: []Tenant{{Name: "acme", Weight: 1, Rate: 0.001, Burst: 2, MaxQueued: 8}},
		Slots:   1,
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if _, err := g.Submit("nobody", &JobSpec{Op: OpSum, Selection: SelectionSpec{All: true}}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}

	var bad *BadJobError
	if _, err := g.Submit("acme", &JobSpec{Op: "median", Selection: SelectionSpec{All: true}}); !errors.As(err, &bad) {
		t.Fatalf("bad spec: %v", err)
	}

	// Burst 2 with a ~zero refill rate: the bad job above consumed one
	// token, one more submission passes, then the bucket is empty.
	if _, err := g.Submit("acme", &JobSpec{Op: OpSum, Selection: SelectionSpec{All: true}}); err != nil {
		t.Fatalf("submit within burst: %v", err)
	}
	var quota *QuotaError
	if _, err := g.Submit("acme", &JobSpec{Op: OpSum, Selection: SelectionSpec{All: true}}); !errors.As(err, &quota) {
		t.Fatalf("over-burst submit: %v", err)
	}

	m := g.Metrics().Tenant("acme")
	if m.Submitted.Value() != 3 || m.Rejected.Value() != 2 || m.Admitted.Value() != 1 {
		t.Fatalf("counters: submitted %d admitted %d rejected %d",
			m.Submitted.Value(), m.Admitted.Value(), m.Rejected.Value())
	}

	// The admitted job fails against the dead backend — failed, never stuck.
	job := waitJob(t, g, func() string {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.order[0]
	}())
	if job.State != StateFailed || job.Error == "" {
		t.Fatalf("dead-backend job: %+v", job)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	exec := &Executor{
		Client:   cluster.NewClient(cluster.ClientConfig{}),
		Backends: []string{"127.0.0.1:1"},
		Key:      jobTestKey(t),
	}
	schema := Schema{Rows: 10, Columns: []string{"value"}}
	cases := []GatewayConfig{
		{},                                  // no schema
		{Schema: schema},                    // no executor
		{Schema: schema, Exec: &Executor{}}, // unwired executor
		{Schema: schema, Exec: exec},        // no tenants
		{Schema: schema, Exec: exec, Tenants: []Tenant{{Name: "a"}}},    // zero policy knobs
		{Schema: schema, Exec: exec, Tenants: oneTenant(), Slots: -1},   // negative slots
		{Schema: schema, Exec: exec, Tenants: oneTenant(), MaxJobs: -1}, // negative cap
	}
	for i, cfg := range cases {
		if _, err := NewGateway(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGatewayHTTP(t *testing.T) {
	const n = 24
	table, err := database.Generate(n, database.DistUniform, 7)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startJobCluster(t, table, 2)
	g, err := NewGateway(GatewayConfig{
		Schema:  Schema{Rows: n, Columns: []string{"value"}},
		Exec:    testExecutor(t, addr),
		Tenants: oneTenant(),
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	post := func(tenant, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// Submit a sum job over HTTP and poll its status to completion.
	resp, body := post("acme", `{"op":"sum","selection":{"all":true}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	if job.State != StateQueued || job.Tenant != "acme" || job.Op != OpSum {
		t.Fatalf("submitted job %+v", job)
	}

	oracle, err := table.SelectedSum(mustAll(t, n))
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	testutil.Eventually(t, 60*time.Second, "the job to finish over HTTP", func() bool {
		resp, err := http.Get(ts.URL + "/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return got.State == StateDone || got.State == StateFailed
	})
	if got.State == StateFailed {
		t.Fatalf("job failed: %s", got.Error)
	}
	if got.Result.Sum != oracle.String() {
		t.Fatalf("HTTP sum %s, oracle %s", got.Result.Sum, oracle)
	}

	// Rejections map onto HTTP statuses.
	if resp, _ := post("", `{"op":"sum","selection":{"all":true}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tenant header: %d", resp.StatusCode)
	}
	if resp, _ := post("nobody", `{"op":"sum","selection":{"all":true}}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unknown tenant: %d", resp.StatusCode)
	}
	resp, body = post("acme", `{"op":"median","selection":{"all":true}}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("[bad-job]")) {
		t.Fatalf("bad op: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post("acme", `{"op":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}

	// Status of an unknown job is a 404; the list shows the finished job.
	if resp, err := http.Get(ts.URL + "/no-such-job"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var list jobsDoc
	err = json.NewDecoder(resp2.Body).Decode(&list)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) == 0 || list.Jobs[0].ID != job.ID {
		t.Fatalf("job list: %+v", list.Jobs)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
}

func TestGatewayJobStoreEviction(t *testing.T) {
	exec := &Executor{
		Client:   cluster.NewClient(cluster.ClientConfig{Retries: 0, Backoff: time.Millisecond}),
		Backends: []string{"127.0.0.1:1"},
		Key:      jobTestKey(t),
	}
	g, err := NewGateway(GatewayConfig{
		Schema:  Schema{Rows: 10, Columns: []string{"value"}},
		Exec:    exec,
		Tenants: oneTenant(),
		MaxJobs: 3,
		Logf:    discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		job, err := g.Submit("acme", &JobSpec{Op: OpSum, Selection: SelectionSpec{All: true}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitJob(t, g, job.ID) // finish (fails fast on the dead backend)
		ids = append(ids, job.ID)
	}
	g.mu.Lock()
	stored := len(g.jobs)
	g.mu.Unlock()
	if stored > 3 {
		t.Fatalf("store holds %d jobs, cap 3", stored)
	}
	// The newest job is always retained.
	if _, ok := g.Status(ids[len(ids)-1]); !ok {
		t.Fatal("newest job evicted")
	}
}
