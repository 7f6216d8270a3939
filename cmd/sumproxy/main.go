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
// sumserver (admission control, idle/session deadlines, graceful drain),
// and the backend fan-out runs through the production client runtime
// (pooling, retry with backoff, replica failover, optional hedged dials and
// CRC-trailed frames). Merged server+cluster counters are served from
// http://<-stats-addr>/stats.
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/metrics"
	"privstats/internal/server"
	"privstats/internal/trace"

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
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "max concurrent client sessions; overflow gets a busy error")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "fail a client session idle for this long (0 = never)")
	sessionTimeout := flag.Duration("session-timeout", 0, "hard cap on a whole client session (0 = none)")
	grace := flag.Duration("grace", 30*time.Second, "drain window for in-flight sessions on SIGINT/SIGTERM")
	statsAddr := flag.String("stats-addr", "", "serve merged server+cluster metrics on http://<addr>/stats (empty = off)")
	logEvery := flag.Duration("log-every", time.Minute, "interval for the periodic metrics log line (0 = off)")
	dialTimeout := flag.Duration("dial-timeout", cluster.DefaultDialTimeout, "TCP connect timeout per backend attempt")
	ioTimeout := flag.Duration("io-timeout", cluster.DefaultIOTimeout, "per-frame idle/write deadline on backend sessions")
	retries := flag.Int("retries", cluster.DefaultRetries, "extra attempts per shard after the first, spread across replicas")
	backoff := flag.Duration("backoff", cluster.DefaultBackoff, "base sleep before a retry, doubled each attempt and jittered")
	maxConns := flag.Int("max-conns", cluster.DefaultMaxConns, "max concurrent sessions per backend")
	probeAfter := flag.Duration("probe-after", cluster.DefaultProbeAfter, "how long a failed backend is skipped before a probe attempt")
	dialHedge := flag.Duration("dial-hedge-after", 0, "launch a second dial if the first is still pending after this delay (0 = off)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard fan-out deadline; a shard past it fails the query as shard-unavailable (0 = none)")
	hedgeAfter := flag.Duration("hedge-after", 0, "re-dispatch a straggling shard to its replica this long after upload completes (0 = off)")
	useCRC := flag.Bool("crc", false, "request CRC32 frame trailers on backend sessions (old backends degrade to plain frames)")
	traceRing := flag.Int("trace-ring", 0, "record the last N traced sessions and serve them at /traces on -stats-addr (0 = off)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on -stats-addr")
	flag.Parse()

	shards, client, agg, err := buildAggregator(*shardsSpec, cluster.ClientConfig{
		DialTimeout:        *dialTimeout,
		IOTimeout:          *ioTimeout,
		Retries:            *retries,
		Backoff:            *backoff,
		MaxConnsPerBackend: *maxConns,
		ProbeAfter:         *probeAfter,
		DialHedgeAfter:     *dialHedge,
		UseCRC:             *useCRC,
	}, cluster.AggregatorConfig{
		ShardTimeout: *shardTimeout,
		HedgeAfter:   *hedgeAfter,
	})
	if err != nil {
		if errors.Is(err, errNoShards) {
			flag.Usage()
		}
		log.Fatal(err)
	}
	var recorder *trace.Recorder
	if *traceRing > 0 {
		recorder = trace.NewRecorder(*traceRing)
	}
	srv, err := server.NewHandler(agg, server.Config{
		MaxSessions:    *maxSessions,
		IdleTimeout:    *idleTimeout,
		SessionTimeout: *sessionTimeout,
		LogEvery:       *logEvery,
		Traces:         recorder,
	})
	if err != nil {
		log.Fatalf("sumproxy: %v", err)
	}

	stats, err := server.ListenStats(*statsAddr, server.StatsMuxConfig{
		Stats: metrics.StatsHandler(func() any {
			return metrics.ProxySnapshot{Server: srv.Metrics().Snapshot(time.Now()), Cluster: client.Metrics().Snapshot()}
		}),
		Prom:   metrics.Registry{srv.Metrics(), client.Metrics()},
		Traces: recorder,
		Pprof:  *pprofFlag,
		Admin: map[string]http.Handler{
			"/reshard": reshardHandler(agg.Epochs(), client.Metrics()),
		},
	})
	if err != nil {
		log.Fatalf("sumproxy: -stats-addr: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("sumproxy: listen: %v", err)
	}
	log.Printf("aggregating %d rows over %d shards on %s", shards.Rows(), shards.Len(), ln.Addr())
	log.Printf("shard map: %s", shards)

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-sigCtx.Done()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		log.Printf("shutdown requested; draining up to %v", *grace)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("sumproxy: forced shutdown after grace period: %v", err)
		}
	}()

	err = srv.Serve(ln)
	if err != nil && err != server.ErrServerClosed {
		log.Fatalf("sumproxy: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	_ = srv.Shutdown(ctx)
	_ = stats.Shutdown(context.Background())
	log.Printf("final: %s", srv.Metrics().Summary())
}
