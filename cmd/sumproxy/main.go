// Command sumproxy runs the cluster aggregator for the private
// selected-sum protocol: it fronts a set of sumserver shards that each hold
// a contiguous row range of one logical table, fans every client's
// encrypted index vector out to them, and homomorphically combines the
// shards' rerandomized partial sums into the single ciphertext the client
// sees.
//
// The aggregator is untrusted for privacy — it only ever handles
// ciphertexts under the client's key (see DESIGN.md §9) — so running it on
// a different operator's machine than the shards costs nothing in the
// threat model.
//
// Client-facing sessions run through the same internal/server runtime as
// sumserver (admission control, idle/session deadlines, graceful drain on
// SIGINT/SIGTERM/SIGHUP), and the backend fan-out runs through the
// production client runtime (pooling, retry with backoff, replica failover,
// optional hedged dials and CRC-trailed frames). Merged server+cluster
// counters are served from http://<-stats-addr>/stats.
//
// Usage:
//
//	sumproxy -listen :7000 -shards '0-5000=db1:7001;5000-10000=db2:7001'
//	sumproxy -listen :7000 -shards '0-5000=db1:7001|db1b:7001;5000-10000=db2:7001' -retries 3 -hedge-after 500ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/daemon"
	"privstats/internal/metrics"
	"privstats/internal/server"

	// Paillier, the one accepted scheme, registers itself with the registry.
	_ "privstats/internal/paillier"
)

// errNoShards is the startup rejection for a missing/empty -shards flag.
var errNoShards = errors.New("sumproxy: -shards is required (format: 'lo-hi=primary[|replica...];...')")

// buildAggregator validates the shard spec and assembles the fan-out stack.
// Duplicate or overlapping ranges, gaps, empty backend lists, and empty
// specs all surface here as clear errors — before any socket is opened.
func buildAggregator(shardsSpec string, ccfg cluster.ClientConfig, acfg cluster.AggregatorConfig) (*cluster.ShardMap, *cluster.Client, *cluster.Aggregator, error) {
	if strings.TrimSpace(shardsSpec) == "" {
		return nil, nil, nil, errNoShards
	}
	shards, err := cluster.ParseShardMap(shardsSpec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sumproxy: invalid -shards: %w", err)
	}
	client := cluster.NewClient(ccfg)
	agg, err := cluster.NewAggregatorWithConfig(shards, client, acfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sumproxy: %w", err)
	}
	return shards, client, agg, nil
}

func main() {
	listen := flag.String("listen", ":7000", "address to accept client sessions on")
	shardsSpec := flag.String("shards", "", "shard map: 'lo-hi=primary[|replica...];...' covering [0,n) (required)")
	var d daemon.Serving
	d.Register(flag.CommandLine)
	flag.IntVar(&d.MaxSessions, "max-sessions", server.DefaultMaxSessions, "max concurrent client sessions; overflow gets a busy error")
	flag.DurationVar(&d.IdleTimeout, "idle-timeout", 2*time.Minute, "fail a client session idle for this long (0 = never)")
	flag.DurationVar(&d.SessionTimeout, "session-timeout", 0, "hard cap on a whole client session (0 = none)")
	flag.StringVar(&d.StatsAddr, "stats-addr", "", "serve merged server+cluster metrics on http://<addr>/stats (empty = off)")
	flag.IntVar(&d.TraceRing, "trace-ring", 0, "record the last N traced sessions and serve them at /traces on -stats-addr (0 = off)")
	var b daemon.Backend
	b.Register(flag.CommandLine)
	dialTimeout := flag.Duration("dial-timeout", cluster.DefaultDialTimeout, "TCP connect timeout per backend attempt")
	ioTimeout := flag.Duration("io-timeout", cluster.DefaultIOTimeout, "per-frame idle/write deadline on backend sessions")
	flag.IntVar(&b.Retries, "retries", cluster.DefaultRetries, "extra attempts per shard after the first, spread across replicas")
	maxConns := flag.Int("max-conns", cluster.DefaultMaxConns, "max concurrent sessions per backend")
	probeAfter := flag.Duration("probe-after", cluster.DefaultProbeAfter, "how long a failed backend is skipped before a probe attempt")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard fan-out deadline; a shard past it fails the query as shard-unavailable (0 = none)")
	hedgeAfter := flag.Duration("hedge-after", 0, "re-dispatch a straggling shard to its replica this long after upload completes (0 = off)")
	flag.BoolVar(&b.CRC, "crc", false, "request CRC32 frame trailers on backend sessions (old backends degrade to plain frames)")
	flag.Parse()

	ccfg := b.Config()
	ccfg.DialTimeout, ccfg.IOTimeout = *dialTimeout, *ioTimeout
	ccfg.MaxConnsPerBackend, ccfg.ProbeAfter = *maxConns, *probeAfter
	shards, client, agg, err := buildAggregator(*shardsSpec, ccfg, cluster.AggregatorConfig{
		ShardTimeout: *shardTimeout,
		HedgeAfter:   *hedgeAfter,
	})
	if err != nil {
		if errors.Is(err, errNoShards) {
			flag.Usage()
		}
		log.Fatal(err)
	}
	srv, err := server.NewHandler(agg, d.Config())
	if err != nil {
		log.Fatalf("sumproxy: %v", err)
	}
	err = d.Run(context.Background(), "sumproxy", *listen, srv, server.StatsMuxConfig{
		Stats: metrics.StatsHandler(func() any {
			return metrics.ProxySnapshot{Server: srv.Metrics().Snapshot(time.Now()), Cluster: client.Metrics().Snapshot()}
		}),
		Prom: metrics.Registry{srv.Metrics(), client.Metrics()},
		Admin: map[string]http.Handler{
			"/reshard": reshardHandler(agg.Epochs(), client.Metrics()),
		},
	}, func(addr net.Addr) {
		log.Printf("aggregating %d rows over %d shards on %s", shards.Rows(), shards.Len(), addr)
		log.Printf("shard map: %s", shards)
	})
	if err != nil {
		log.Fatalf("sumproxy: %v", err)
	}
}
