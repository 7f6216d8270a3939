// Job-level chaos: the stats-job gateway's all-or-nothing contract under
// injected backend faults. Lives in package cluster_test (not cluster)
// because it imports internal/jobs, which itself imports cluster.
package cluster_test

import (
	"context"
	"crypto/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/faultnet"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/testutil"
)

var (
	cjOnce sync.Once
	cjKey  *paillier.PrivateKey
	cjErr  error
)

func chaosJobKey(t testing.TB) homomorphic.PrivateKey {
	t.Helper()
	cjOnce.Do(func() { cjKey, cjErr = paillier.KeyGen(rand.Reader, 256) })
	if cjErr != nil {
		t.Fatalf("KeyGen: %v", cjErr)
	}
	return paillier.SchemeKey{SK: cjKey}
}

func chaosJobServe(t *testing.T, srv *server.Server, ln net.Listener) {
	t.Helper()
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
}

// startChaosJobCluster shards table over k backends, each behind
// planFor(shard), with an aggregator in front, and returns the proxy
// address.
func startChaosJobCluster(t *testing.T, table *database.Table, k int, planFor func(shard int) faultnet.Plan) string {
	t.Helper()
	nop := func(string, ...any) {}
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
	for i := range ranges {
		shardTable, err := table.Shard(ranges[i].Lo, ranges[i].Hi)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(shardTable, server.Config{Logf: nop, IdleTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		chaosJobServe(t, srv, faultnet.Listen(ln, planFor(i)))
		ranges[i].Backends = []string{ln.Addr().String()}
	}
	sm, err := cluster.NewShardMap(ranges)
	if err != nil {
		t.Fatal(err)
	}
	fanout := cluster.NewClient(cluster.ClientConfig{
		Retries:    3,
		Backoff:    2 * time.Millisecond,
		IOTimeout:  300 * time.Millisecond,
		ProbeAfter: 10 * time.Millisecond,
	})
	agg, err := cluster.NewAggregatorWithConfig(sm, fanout, cluster.AggregatorConfig{ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewHandler(agg, server.Config{Logf: nop})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaosJobServe(t, srv, ln)
	return ln.Addr().String()
}

func chaosJobGateway(t *testing.T, addr string, rows int) *jobs.Gateway {
	t.Helper()
	g, err := jobs.NewGateway(jobs.GatewayConfig{
		Schema: jobs.Schema{Rows: rows, Columns: []string{"value"}},
		Exec: &jobs.Executor{
			Client:    cluster.NewClient(cluster.ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond, ProbeAfter: 10 * time.Millisecond}),
			Backends:  []string{addr},
			Key:       chaosJobKey(t),
			ChunkSize: 4, // many uplink frames per session, so armed faults fire mid-job
		},
		Tenants: []jobs.Tenant{{Name: "acme", Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 64}},
		Slots:   2,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func chaosWaitJob(t *testing.T, g *jobs.Gateway, id string) jobs.Job {
	t.Helper()
	var job jobs.Job
	testutil.Eventually(t, 60*time.Second, "job "+id+" to finish", func() bool {
		var ok bool
		if job, ok = g.Status(id); !ok {
			t.Fatalf("job %s vanished", id)
		}
		return job.State == jobs.StateDone || job.State == jobs.StateFailed
	})
	return job
}

// TestChaosJobShardKill: every connection to shard 1 is reset at a random
// early operation — the shard dies mid-job on every attempt, including
// retries. The job must fail with the classified shard-unavailable verdict
// and carry NO result: a dead shard can never surface as a partial sum.
func TestChaosJobShardKill(t *testing.T) {
	testutil.GuardGoroutines(t)
	const n = 32
	table, err := database.Generate(n, database.DistUniform, 515151)
	if err != nil {
		t.Fatal(err)
	}
	addr := startChaosJobCluster(t, table, 2, func(shard int) faultnet.Plan {
		if shard != 1 {
			return faultnet.Plan{Seed: 1}
		}
		return faultnet.Plan{
			Seed:  61,
			Read:  faultnet.Spec{Reset: 1},
			Write: faultnet.Spec{Reset: 1},
		}
	})
	g := chaosJobGateway(t, addr, n)

	job, err := g.Submit("acme", &jobs.JobSpec{Op: jobs.OpVariance, Selection: jobs.SelectionSpec{All: true}})
	if err != nil {
		t.Fatal(err)
	}
	job = chaosWaitJob(t, g, job.ID)
	if job.State != jobs.StateFailed {
		t.Fatalf("job over a dead shard finished %s: %+v", job.State, job.Result)
	}
	if job.Result != nil {
		t.Fatalf("failed job carries a result (partial escape): %+v", job.Result)
	}
	if !strings.Contains(job.Error, "shard-unavailable") && !strings.Contains(job.Error, "shard unavailable") {
		t.Fatalf("job error %q is not the classified shard-unavailable verdict", job.Error)
	}
	if f := g.Metrics().Tenant("acme").Failed.Value(); f != 1 {
		t.Fatalf("failed counter %d, want 1", f)
	}
}

// TestChaosJobRetriedResets: 5% of backend connections (each direction)
// take a seeded reset. With the fan-out and gateway retry budgets, jobs
// must resolve to the exact plaintext oracle or a classified failure —
// never a wrong statistic.
func TestChaosJobRetriedResets(t *testing.T) {
	testutil.GuardGoroutines(t)
	const n = 32
	table, err := database.Generate(n, database.DistUniform, 626262)
	if err != nil {
		t.Fatal(err)
	}
	addr := startChaosJobCluster(t, table, 2, func(shard int) faultnet.Plan {
		return faultnet.Plan{
			Seed:  int64(8800 + shard),
			Read:  faultnet.Spec{Reset: 0.05},
			Write: faultnet.Spec{Reset: 0.05},
		}
	})
	g := chaosJobGateway(t, addr, n)

	selSpec := jobs.SelectionSpec{Ranges: [][2]int{{5, 27}}}
	sel, err := (&selSpec).Build(n)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}

	done, failed := 0, 0
	for i := 0; i < 10; i++ {
		job, err := g.Submit("acme", &jobs.JobSpec{Op: jobs.OpSum, Selection: selSpec})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		job = chaosWaitJob(t, g, job.ID)
		if job.State == jobs.StateFailed {
			// A failed job must carry a classified code, and no result.
			if job.Result != nil {
				t.Fatalf("failed job %d carries a result: %+v", i, job.Result)
			}
			if !strings.Contains(job.Error, "[") {
				t.Fatalf("job %d failure %q is unclassified", i, job.Error)
			}
			t.Logf("job %d: classified failure: %s", i, job.Error)
			failed++
			continue
		}
		if job.Result.Sum != oracle.String() {
			t.Fatalf("job %d: WRONG SUM %s, oracle %s (reset escaped as a wrong statistic)", i, job.Result.Sum, oracle)
		}
		done++
	}
	t.Logf("resets: %d correct, %d classified failures", done, failed)
	if done == 0 {
		t.Fatal("no job succeeded under 5% resets")
	}
}
