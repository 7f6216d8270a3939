// Command sumjobd runs the declarative multi-tenant stats-job gateway: an
// HTTP daemon that accepts JSON JobSpecs (sum, mean, variance, covariance,
// groupby over a selection), plans each onto private selected-sum queries,
// and executes them against a sumproxy or sumserver through the production
// client runtime (retry, failover, hedging). Per-tenant token-bucket quotas
// and weighted fair-share admission keep one saturating analyst from
// starving the rest.
//
// The gateway is the analyst side of the protocol: it holds the private key
// and encrypts every selection before anything leaves the process, so the
// serving infrastructure only ever sees ciphertexts. Job statuses carry
// plaintext aggregates the submitting analyst is entitled to.
//
// Usage:
//
//	sumjobd -backends localhost:7000 -rows 100000 -tenants tenants.json
//	sumjobd -backends proxy1:7000,proxy2:7000 -rows 100000 -tenants tenants.json -key analyst.key -slots 4
//
// Tenants are a JSON array: [{"name":"acme","weight":2,"rate":5,"burst":10,"max_queued":16}, ...].
//
// Endpoints on -listen: POST /jobs (submit, X-Tenant header), GET /jobs/{id}
// (status/result), GET /jobs (list), /metrics (Prometheus, per-tenant job
// counters), /traces (gateway-side trace ring), /debug/pprof with -pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/daemon"
	"privstats/internal/jobs"
	"privstats/internal/metrics"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/stock"
	"privstats/internal/trace"
)

var (
	errNoBackends = errors.New("sumjobd: -backends is required (comma-separated failover list)")
	errNoTenants  = errors.New("sumjobd: -tenants is required (JSON array of tenant policies)")
	errNoRows     = errors.New("sumjobd: -rows (table size) must be positive")
)

// jobdConfig is everything buildGateway validates before a socket opens.
type jobdConfig struct {
	backends   string
	rows       int
	tenantPath string
	keyPath    string
	keyBits    int
	slots      int
	maxJobs    int
	jobTimeout time.Duration
	storeDir   string
	chunk      int
	traceRing  int
	stockZeros int
	stockOnes  int
	backend    daemon.Backend
}

// buildGateway validates the whole configuration — backend list, table
// size, tenant policy file (non-positive weights/rates/bursts are rejected
// by the loader), key material, and knob signs — and assembles the gateway.
// Every operator mistake surfaces here as a clear error before any socket
// is opened.
func buildGateway(cfg jobdConfig) (*jobs.Gateway, *cluster.Client, *trace.Recorder, *stock.RemoteSource, error) {
	backends := daemon.SplitAddrs(cfg.backends)
	if len(backends) == 0 {
		return nil, nil, nil, nil, errNoBackends
	}
	if cfg.rows <= 0 {
		return nil, nil, nil, nil, errNoRows
	}
	if strings.TrimSpace(cfg.tenantPath) == "" {
		return nil, nil, nil, nil, errNoTenants
	}
	tenants, err := jobs.LoadTenants(cfg.tenantPath)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("sumjobd: %w", err)
	}
	if cfg.slots <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("sumjobd: -slots %d must be positive", cfg.slots)
	}
	if cfg.maxJobs < 0 || cfg.jobTimeout < 0 || cfg.chunk < 0 || cfg.traceRing < 0 {
		return nil, nil, nil, nil, errors.New("sumjobd: negative -max-jobs/-job-timeout/-chunk/-trace-ring")
	}
	sk, err := daemon.LoadKey(cfg.keyPath, cfg.keyBits)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("sumjobd: %w", err)
	}

	client := cluster.NewClient(cfg.backend.Config())
	var recorder *trace.Recorder
	if cfg.traceRing > 0 {
		recorder = trace.NewRecorder(cfg.traceRing)
	}

	// With -stock, executor queries draw preprocessed encryptions prefetched
	// from the stock daemon; without it (or when the daemon is down) they
	// encrypt online as before.
	var remote *stock.RemoteSource
	if cfg.backend.Stock != "" {
		remote, err = cfg.backend.RemoteSource(sk.Public(), cfg.stockZeros, cfg.stockOnes)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("sumjobd: %w", err)
		}
	}

	exec := &jobs.Executor{
		Client:    client,
		Backends:  backends,
		Key:       paillier.SchemeKey{SK: sk},
		ChunkSize: cfg.chunk,
		Traces:    recorder,
	}
	if remote != nil {
		exec.Pool = remote
	}
	g, err := jobs.NewGateway(jobs.GatewayConfig{
		Schema:     jobs.Schema{Rows: cfg.rows, Columns: []string{"value"}},
		Exec:       exec,
		Tenants:    tenants,
		Slots:      cfg.slots,
		MaxJobs:    cfg.maxJobs,
		JobTimeout: cfg.jobTimeout,
		StoreDir:   cfg.storeDir,
		Logf:       log.Printf,
	})
	if err != nil {
		if remote != nil {
			remote.Close()
		}
		return nil, nil, nil, nil, fmt.Errorf("sumjobd: %w", err)
	}
	return g, client, recorder, remote, nil
}

func main() {
	listen := flag.String("listen", ":7080", "HTTP address for job submission and observability")
	var cfg jobdConfig
	flag.StringVar(&cfg.backends, "backends", "", "sumproxy/sumserver address list, comma-separated failover order (required)")
	flag.IntVar(&cfg.rows, "rows", 0, "rows in the served table (the gateway must know the schema; required)")
	flag.StringVar(&cfg.tenantPath, "tenants", "", "tenant policy file: JSON array of {name,weight,rate,burst,max_queued} (required)")
	flag.StringVar(&cfg.keyPath, "key", "", "analyst private key from keygen (generated fresh when empty)")
	flag.IntVar(&cfg.keyBits, "bits", 512, "key size when generating a fresh key")
	flag.IntVar(&cfg.slots, "slots", 2, "concurrently executing jobs, shared across tenants by weighted fair queueing")
	flag.IntVar(&cfg.maxJobs, "max-jobs", 1024, "retained job statuses; oldest finished jobs are evicted past this")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 0, "hard cap on one job's execution (0 = none)")
	flag.StringVar(&cfg.storeDir, "store", "", "crash-safe job store directory: journal every job and recover on restart (empty = memory-only)")
	flag.IntVar(&cfg.chunk, "chunk", 0, "batch the encrypted index vector in chunks of this size (0 = single chunk)")
	var d daemon.Serving
	flag.DurationVar(&d.Grace, "grace", 30*time.Second, "drain window for in-flight jobs on SIGINT/SIGTERM/SIGHUP")
	cfg.backend.Register(flag.CommandLine)
	cfg.backend.RegisterStock(flag.CommandLine)
	flag.DurationVar(&cfg.backend.Timeout, "timeout", cluster.DefaultIOTimeout, "dial and per-frame IO deadline on backend sessions")
	flag.IntVar(&cfg.backend.Retries, "retries", cluster.DefaultRetries, "extra attempts per query after the first, spread across -backends")
	flag.BoolVar(&cfg.backend.CRC, "crc", false, "request CRC32 frame trailers on backend sessions")
	flag.IntVar(&cfg.stockZeros, "stock-zeros", 4096, "local depth of prefetched 0-bit encryptions with -stock")
	flag.IntVar(&cfg.stockOnes, "stock-ones", 512, "local depth of prefetched 1-bit encryptions with -stock")
	flag.IntVar(&cfg.traceRing, "trace-ring", 256, "record the last N gateway-side job traces and serve them at /traces (0 = off)")
	flag.BoolVar(&d.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	g, client, recorder, remote, err := buildGateway(cfg)
	if err != nil {
		if errors.Is(err, errNoBackends) || errors.Is(err, errNoTenants) || errors.Is(err, errNoRows) {
			flag.Usage()
		}
		log.Fatal(err)
	}

	if *listen == "" {
		log.Fatal("sumjobd: -listen must not be empty")
	}
	err = d.RunHTTP(context.Background(), "sumjobd", *listen, server.StatsMuxConfig{
		Stats:  metrics.StatsHandler(func() any { return g.Metrics().Snapshot() }),
		Prom:   metrics.Registry{client.Metrics(), g.Metrics()},
		Traces: recorder,
		Jobs:   g.Handler(),
	}, func(addr net.Addr) {
		log.Printf("job gateway on http://%s/jobs (%d rows, %d slots)", addr, cfg.rows, cfg.slots)
	})
	if err != nil {
		log.Fatalf("sumjobd: %v", err)
	}
	g.Close()
	client.CloseIdle()
	if remote != nil {
		remote.Close()
	}
}
