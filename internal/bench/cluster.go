package bench

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"net"
	"strings"
	"text/tabwriter"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/server"
)

// ClusterRow is one point of the sharded-deployment sweep: the same query
// served by k shard backends behind the untrusted aggregator.
type ClusterRow struct {
	Shards int
	// Total is the client-observed wall time of the whole query.
	Total time.Duration
	// MaxShardFold is the slowest backend's fold compute — the critical
	// path of the distributed Π E(I_i)^{x_i}. With the fold split k ways it
	// should drop roughly k-fold against the Shards=1 row.
	MaxShardFold time.Duration
	// SumShardFold is the total fold compute across all backends (the
	// work, as opposed to the critical path — it stays roughly flat).
	SumShardFold time.Duration
	// Combine is the aggregator's compute to merge the k partials and
	// rerandomize the reply (k-1 modular multiplications plus one
	// rerandomization — negligible next to the fold).
	Combine time.Duration
}

// FoldSpeedup returns base's MaxShardFold over this row's.
func (r ClusterRow) FoldSpeedup(base ClusterRow) float64 {
	if r.MaxShardFold <= 0 {
		return 0
	}
	return float64(base.MaxShardFold) / float64(r.MaxShardFold)
}

// ClusterSweep runs the selected-sum query at the largest sweep size
// through a real loopback TCP cluster — k sumserver-equivalent backends
// each holding n/k rows, fronted by the aggregator — for each shard count,
// and reports where the time went. Everything is live: real sockets, real
// admission control, real fan-out. shardCounts defaults to {1, 2, 4, 8}.
func (c Config) ClusterSweep(shardCounts []int) ([]ClusterRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	sk, _, err := c.newKey()
	if err != nil {
		return nil, err
	}
	n := c.Sizes[len(c.Sizes)-1]
	table, sel, err := c.workload(n)
	if err != nil {
		return nil, err
	}
	want, err := table.SelectedSum(sel)
	if err != nil {
		return nil, err
	}

	rows := make([]ClusterRow, 0, len(shardCounts))
	for _, k := range shardCounts {
		row, err := c.clusterPoint(sk, table, sel, want, k)
		if err != nil {
			return nil, fmt.Errorf("bench: cluster k=%d: %w", k, err)
		}
		rows = append(rows, row)
		c.progressf("cluster k=%d total=%v max-fold=%v\n", k,
			row.Total.Round(time.Millisecond), row.MaxShardFold.Round(time.Millisecond))
	}
	return rows, nil
}

// clusterPoint measures one shard count: it stands a live cluster up, runs
// one verified query through it, reads the phase histograms back out of the
// runtimes, and tears everything down.
func (c Config) clusterPoint(sk homomorphic.PrivateKey, table *database.Table, sel *database.Selection, want *big.Int, k int) (ClusterRow, error) {
	noLog := func(string, ...any) {}

	type member struct {
		srv  *server.Server
		ln   net.Listener
		done chan error
	}
	var members []member
	start := func(srv *server.Server) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		members = append(members, member{srv: srv, ln: ln, done: done})
		return ln.Addr().String(), nil
	}
	stopAll := func() {
		for _, m := range members {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = m.srv.Shutdown(ctx)
			cancel()
			<-m.done
		}
		members = nil
	}
	defer stopAll()

	// Backends: k stock server runtimes, each over its contiguous slice.
	groups := make([][]string, k)
	shards := make([]cluster.Shard, k)
	backendSrvs := make([]*server.Server, k)
	lo := 0
	for i := 0; i < k; i++ {
		rows := table.Len() / k
		if i < table.Len()%k {
			rows++
		}
		shardTable, err := table.Shard(lo, lo+rows)
		if err != nil {
			return ClusterRow{}, err
		}
		srv, err := server.New(shardTable, server.Config{Logf: noLog})
		if err != nil {
			return ClusterRow{}, err
		}
		addr, err := start(srv)
		if err != nil {
			return ClusterRow{}, err
		}
		groups[i] = []string{addr}
		shards[i] = cluster.Shard{Lo: lo, Hi: lo + rows, Backends: groups[i]}
		backendSrvs[i] = srv
		lo += rows
	}
	sm, err := cluster.NewShardMap(shards)
	if err != nil {
		return ClusterRow{}, err
	}

	// Aggregator on the same runtime, fronted by the production client.
	fanout := cluster.NewClient(cluster.ClientConfig{})
	agg, err := cluster.NewAggregator(sm, fanout)
	if err != nil {
		return ClusterRow{}, err
	}
	proxy, err := server.NewHandler(agg, server.Config{Logf: noLog})
	if err != nil {
		return ClusterRow{}, err
	}
	proxyAddr, err := start(proxy)
	if err != nil {
		return ClusterRow{}, err
	}

	queryClient := cluster.NewClient(cluster.ClientConfig{})
	t0 := time.Now()
	got, err := queryClient.Query(context.Background(), []string{proxyAddr}, sk, sel, c.ChunkSize, nil)
	if err != nil {
		return ClusterRow{}, err
	}
	total := time.Since(t0)
	if got.Cmp(want) != 0 {
		return ClusterRow{}, fmt.Errorf("wrong sum %v, want %v", got, want)
	}

	// The runtimes record a session's phase timings after its reply is
	// flushed, so the client can hold its answer before they exist: drain
	// the runtimes first.
	stopAll()
	row := ClusterRow{Shards: k, Total: total}
	for _, srv := range backendSrvs {
		fold := time.Duration(srv.Metrics().AbsorbNanos.Snapshot().Sum)
		row.SumShardFold += fold
		if fold > row.MaxShardFold {
			row.MaxShardFold = fold
		}
	}
	row.Combine = time.Duration(proxy.Metrics().FinalizeNanos.Snapshot().Sum)
	return row, nil
}

// WriteClusterTable renders the cluster sweep.
func WriteClusterTable(w io.Writer, n int, rows []ClusterRow) error {
	title := fmt.Sprintf("Sharded cluster sweep, n=%d, live loopback TCP", n)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\ttotal\tmax shard fold\tfold speedup\tsum shard fold\taggregator combine")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2fx\t%s\t%s\n",
			r.Shards, fmtDur(r.Total), fmtDur(r.MaxShardFold), r.FoldSpeedup(rows[0]),
			fmtDur(r.SumShardFold), fmtDur(r.Combine))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ClusterCSV writes cluster rows as CSV.
func ClusterCSV(w io.Writer, rows []ClusterRow) error {
	if _, err := fmt.Fprintln(w, "shards,total_ms,max_shard_fold_ms,sum_shard_fold_ms,combine_ms"); err != nil {
		return err
	}
	for _, r := range rows {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		if _, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%.3f,%.3f\n",
			r.Shards, ms(r.Total), ms(r.MaxShardFold), ms(r.SumShardFold), ms(r.Combine)); err != nil {
			return err
		}
	}
	return nil
}
