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
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"privstats/internal/cluster"
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
	stockAddr  string
	stockZeros int
	stockOnes  int
	client     cluster.ClientConfig
}

// buildGateway validates the whole configuration — backend list, table
// size, tenant policy file (non-positive weights/rates/bursts are rejected
// by the loader), key material, and knob signs — and assembles the gateway.
// Every operator mistake surfaces here as a clear error before any socket
// is opened.
func buildGateway(cfg jobdConfig) (*jobs.Gateway, *cluster.Client, *trace.Recorder, *stock.RemoteSource, error) {
	backends := splitAddrs(cfg.backends)
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
	sk, err := loadKey(cfg.keyPath, cfg.keyBits)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	client := cluster.NewClient(cfg.client)
	var recorder *trace.Recorder
	if cfg.traceRing > 0 {
		recorder = trace.NewRecorder(cfg.traceRing)
	}

	// With -stock, executor queries draw preprocessed encryptions prefetched
	// from the stock daemon; without it (or when the daemon is down) they
	// encrypt online as before.
	var remote *stock.RemoteSource
	if cfg.stockAddr != "" {
		remote, err = stock.NewRemoteSource(stock.RemoteSourceConfig{
			Addr:        cfg.stockAddr,
			Key:         sk.Public(),
			TargetZeros: cfg.stockZeros,
			TargetOnes:  cfg.stockOnes,
			DialTimeout: cfg.client.DialTimeout,
			IOTimeout:   cfg.client.IOTimeout,
			UseCRC:      cfg.client.UseCRC,
		})
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

// loadKey reads the analyst key from keygen output, or generates a fresh
// one when no path is given (fine for experiments: the serving side never
// needs the private key).
func loadKey(path string, bits int) (*paillier.PrivateKey, error) {
	if path == "" {
		sk, err := paillier.KeyGen(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("sumjobd: generating key: %w", err)
		}
		return sk, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sumjobd: reading key: %w", err)
	}
	var sk paillier.PrivateKey
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("sumjobd: parsing key %s: %w", path, err)
	}
	return &sk, nil
}

// splitAddrs parses the -backends failover list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func main() {
	listen := flag.String("listen", ":7080", "HTTP address for job submission and observability")
	backendsFlag := flag.String("backends", "", "sumproxy/sumserver address list, comma-separated failover order (required)")
	rows := flag.Int("rows", 0, "rows in the served table (the gateway must know the schema; required)")
	tenantPath := flag.String("tenants", "", "tenant policy file: JSON array of {name,weight,rate,burst,max_queued} (required)")
	keyPath := flag.String("key", "", "analyst private key from keygen (generated fresh when empty)")
	keyBits := flag.Int("bits", 512, "key size when generating a fresh key")
	slots := flag.Int("slots", 2, "concurrently executing jobs, shared across tenants by weighted fair queueing")
	maxJobs := flag.Int("max-jobs", 1024, "retained job statuses; oldest finished jobs are evicted past this")
	jobTimeout := flag.Duration("job-timeout", 0, "hard cap on one job's execution (0 = none)")
	storeDir := flag.String("store", "", "crash-safe job store directory: journal every job and recover on restart (empty = memory-only)")
	chunk := flag.Int("chunk", 0, "batch the encrypted index vector in chunks of this size (0 = single chunk)")
	grace := flag.Duration("grace", 30*time.Second, "drain window for in-flight jobs on SIGINT/SIGTERM")
	timeout := flag.Duration("timeout", cluster.DefaultIOTimeout, "dial and per-frame IO deadline on backend sessions")
	retries := flag.Int("retries", cluster.DefaultRetries, "extra attempts per query after the first, spread across -backends")
	backoff := flag.Duration("backoff", cluster.DefaultBackoff, "base sleep before a retry, doubled each attempt and jittered")
	dialHedge := flag.Duration("dial-hedge-after", 0, "launch a second dial if the first is still pending after this delay (0 = off)")
	useCRC := flag.Bool("crc", false, "request CRC32 frame trailers on backend sessions")
	stockAddr := flag.String("stock", "", "prefetch preprocessed encryptions from a stockd daemon at this address")
	stockZeros := flag.Int("stock-zeros", 4096, "local depth of prefetched 0-bit encryptions with -stock")
	stockOnes := flag.Int("stock-ones", 512, "local depth of prefetched 1-bit encryptions with -stock")
	traceRing := flag.Int("trace-ring", 256, "record the last N gateway-side job traces and serve them at /traces (0 = off)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	g, client, recorder, remote, err := buildGateway(jobdConfig{
		backends:   *backendsFlag,
		rows:       *rows,
		tenantPath: *tenantPath,
		keyPath:    *keyPath,
		keyBits:    *keyBits,
		slots:      *slots,
		maxJobs:    *maxJobs,
		jobTimeout: *jobTimeout,
		storeDir:   *storeDir,
		chunk:      *chunk,
		traceRing:  *traceRing,
		stockAddr:  *stockAddr,
		stockZeros: *stockZeros,
		stockOnes:  *stockOnes,
		client: cluster.ClientConfig{
			DialTimeout:    *timeout,
			IOTimeout:      *timeout,
			Retries:        *retries,
			Backoff:        *backoff,
			DialHedgeAfter: *dialHedge,
			UseCRC:         *useCRC,
		},
	})
	if err != nil {
		if errors.Is(err, errNoBackends) || errors.Is(err, errNoTenants) || errors.Is(err, errNoRows) {
			flag.Usage()
		}
		log.Fatal(err)
	}

	// The gateway's one HTTP listener carries /jobs and the observability
	// endpoints alike.
	if *listen == "" {
		log.Fatal("sumjobd: -listen must not be empty")
	}
	httpSrv, err := server.ListenStats(*listen, server.StatsMuxConfig{
		Stats:  metrics.StatsHandler(func() any { return g.Metrics().Snapshot() }),
		Prom:   metrics.Registry{client.Metrics(), g.Metrics()},
		Traces: recorder,
		Jobs:   g.Handler(),
		Pprof:  *pprofFlag,
	})
	if err != nil {
		log.Fatalf("sumjobd: listen: %v", err)
	}
	log.Printf("job gateway on http://%s/jobs (%d rows, %d slots)", httpSrv.Addr(), *rows, *slots)

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case <-httpSrv.Done():
		log.Fatal("sumjobd: HTTP listener stopped")
	case <-sigCtx.Done():
	}
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	log.Printf("shutdown requested; draining up to %v", *grace)
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("sumjobd: forced shutdown after grace period: %v", err)
	}
	g.Close()
	if remote != nil {
		remote.Close()
	}
}
