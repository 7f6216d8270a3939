// Command sumclient runs the client side of the private selected-sum
// protocol against a sumserver. It selects rows of the remote table
// (without revealing which), retrieves their sum, and prints per-phase
// timings — the same four components the paper's figures report.
//
// Usage:
//
//	sumclient -server localhost:7001 -n 100000 -select 0.5
//	sumclient -server localhost:7001 -n 100000 -select 0.5 -chunk 100 -preprocess
//	sumclient -server localhost:7001 -n 100000 -indices 3,17,99
//
// Sessions run through the production client runtime (internal/cluster):
// -timeout bounds dial and per-frame IO, and failures are retried -retries
// times with exponential -backoff. -server takes a comma-separated failover
// list — the first address is preferred, later ones are tried when it is
// down or busy:
//
//	sumclient -server proxy1:7000,proxy2:7000 -n 100000 -timeout 10s -retries 3
//
// With -jobd, sumclient talks to a sumjobd gateway instead of running the
// protocol itself: it submits a declarative JobSpec (inline JSON or @file),
// polls the job to completion, and prints the result document:
//
//	sumclient -jobd http://localhost:7080 -tenant acme -job '{"op":"variance","selection":{"all":true}}'
//	sumclient -jobd http://localhost:7080 -tenant acme -job @spec.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/big"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/daemon"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/stock"
	"privstats/internal/trace"
)

// errStockConflict marks a flag combination that mixes -stock with another
// preprocessing source; main rejects it at startup (a structured error and
// usage) instead of letting the modes fight mid-session.
var errStockConflict = errors.New("pick one preprocessing source")

// validateStockFlags rejects -stock combined with an incompatible mode: the
// local sources (-preprocess, -store) would shadow the daemon entirely, and
// -jobd never runs the protocol in this process at all.
func validateStockFlags(stockAddr string, preprocess bool, storePath, jobdURL string) error {
	if stockAddr == "" {
		return nil
	}
	switch {
	case preprocess:
		return fmt.Errorf("-stock and -preprocess: %w", errStockConflict)
	case storePath != "":
		return fmt.Errorf("-stock and -store: %w", errStockConflict)
	case jobdURL != "":
		return fmt.Errorf("-stock and -jobd: %w (the gateway encrypts; give sumjobd the -stock flag instead)", errStockConflict)
	}
	return nil
}

func main() {
	server := flag.String("server", "localhost:7001", "server address, or a comma-separated failover list (first preferred)")
	n := flag.Int("n", 0, "size of the remote table (the client must know the schema)")
	selectFrac := flag.Float64("select", 0.5, "fraction of rows to select at random")
	indices := flag.String("indices", "", "comma-separated explicit row indices (overrides -select)")
	seed := flag.Int64("seed", 7, "seed for random selection")
	keyPath := flag.String("key", "", "private key file from keygen (generated fresh when empty)")
	keyBits := flag.Int("bits", 512, "key size when generating a fresh key")
	chunk := flag.Int("chunk", 0, "batch the index vector in chunks of this size (0 = single chunk)")
	preprocess := flag.Bool("preprocess", false, "precompute all index-bit encryptions before connecting (paper §3.3)")
	storePath := flag.String("store", "", "load preprocessed encryptions from this file (from keygen -store; requires -key)")
	var b daemon.Backend
	b.Register(flag.CommandLine)
	b.RegisterStock(flag.CommandLine)
	flag.DurationVar(&b.Timeout, "timeout", cluster.DefaultIOTimeout, "dial and per-frame IO deadline (0 = runtime default)")
	flag.IntVar(&b.Retries, "retries", cluster.DefaultRetries, "extra attempts after the first, spread across the -server list")
	flag.BoolVar(&b.CRC, "crc", false, "request CRC32 frame trailers (old servers degrade to plain frames)")
	traceReq := flag.Bool("trace", false, "tag the session with a trace ID and print it; servers with -trace-ring expose the phases at /traces?id=")
	jobdURL := flag.String("jobd", "", "submit to a sumjobd gateway at this base URL instead of running the protocol directly")
	tenant := flag.String("tenant", "", "tenant name for -jobd submissions (the X-Tenant header)")
	jobSpec := flag.String("job", "", "JobSpec for -jobd: inline JSON, or @path to read a file")
	pollEvery := flag.Duration("poll", 200*time.Millisecond, "status poll interval for -jobd submissions")
	flag.Parse()

	if err := validateStockFlags(b.Stock, *preprocess, *storePath, *jobdURL); err != nil {
		fmt.Fprintf(os.Stderr, "sumclient: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *jobdURL != "" {
		if err := runJob(*jobdURL, *tenant, *jobSpec, *pollEvery); err != nil {
			log.Fatalf("sumclient: %v", err)
		}
		return
	}

	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "sumclient: -n (remote table size) is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*server, *n, *selectFrac, *indices, *seed, *keyPath, *keyBits, *chunk, *preprocess, *storePath, b, *traceReq); err != nil {
		log.Fatalf("sumclient: %v", err)
	}
}

func run(server string, n int, selectFrac float64, indices string, seed int64, keyPath string, keyBits, chunk int, preprocess bool, storePath string, b daemon.Backend, traceReq bool) error {
	start := time.Now()
	rawSK, err := daemon.LoadKey(keyPath, keyBits)
	if err != nil {
		return err
	}
	if keyPath == "" {
		fmt.Printf("generated %d-bit key in %v (use keygen + -key to reuse one)\n",
			keyBits, time.Since(start).Round(time.Millisecond))
	}
	sk := paillier.SchemeKey{SK: rawSK}

	sel, err := buildSelection(n, selectFrac, indices, seed)
	if err != nil {
		return err
	}
	fmt.Printf("selecting %d of %d rows\n", sel.Count(), n)

	var pool homomorphic.EncryptorPool
	var remote *stock.RemoteSource
	if b.Stock != "" {
		ones := sel.Count()
		remote, err = b.RemoteSource(rawSK.Public(), n-ones, ones)
		if err != nil {
			return err
		}
		defer remote.Close()
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := remote.Prime(ctx)
		cancel()
		if err != nil {
			// A short or absent prefetch is not fatal: the missing bits are
			// encrypted online and counted as fallbacks below.
			fmt.Printf("stock prefetch incomplete (%v); missing bits will be encrypted online\n", err)
		} else {
			fmt.Printf("stock prefetch: %v for %d encryptions from %s\n",
				time.Since(start).Round(time.Millisecond), n, b.Stock)
		}
		pool = remote
	} else if storePath != "" {
		store, err := paillier.LoadBitStore(storePath, rawSK.Public())
		if err != nil {
			return fmt.Errorf("loading preprocessed store: %w", err)
		}
		fmt.Printf("loaded preprocessed store: %d zeros, %d ones\n",
			store.Remaining(0), store.Remaining(1))
		pool = paillier.SchemeBitStore{Store: store}
	} else if preprocess {
		// Client-local preprocessing happens on the key owner's device, so
		// the fill takes the CRT fast path instead of the public r^N route.
		store := paillier.NewBitStoreOwner(rawSK)
		start := time.Now()
		ones := sel.Count()
		if err := store.FillParallel(n-ones, ones, 4); err != nil {
			return fmt.Errorf("preprocessing: %w", err)
		}
		fmt.Printf("offline preprocessing: %v for %d encryptions\n",
			time.Since(start).Round(time.Millisecond), n)
		pool = paillier.SchemeBitStore{Store: store}
	}

	backends := daemon.SplitAddrs(server)
	client := cluster.NewClient(b.Config())

	var traceID trace.ID
	if traceReq {
		traceID = trace.NewID()
		fmt.Printf("trace id:     %s\n", traceID)
	}

	var sum *big.Int
	var out, in int64
	start = time.Now()
	served, err := client.Do(context.Background(), backends, func(s *cluster.Session) error {
		if traceReq {
			// Arm the ID on the connection so QueryVector's hello carries
			// it; the retry runtime may call us on a fresh connection, and
			// each attempt reuses the same ID — it names the query, not the
			// connection.
			s.Conn.SetTraceID(traceID)
		}
		got, err := selectedsum.Query(s.Conn, sk, sel, chunk, pool)
		if err != nil {
			return err
		}
		sum = got
		out, in, _, _ = s.Conn.Meter.Snapshot()
		return nil
	})
	if err != nil {
		return err
	}
	online := time.Since(start)

	fmt.Printf("selected sum: %v\n", sum)
	fmt.Printf("online time:  %v\n", online.Round(time.Millisecond))
	fmt.Printf("traffic:      %d bytes up, %d bytes down\n", out, in)
	if remote != nil {
		fmt.Printf("stock:        %d online fallbacks\n", remote.OnlineFallbacks())
	}
	if cs := client.Metrics().Snapshot(); cs.Retries+cs.Failovers > 0 {
		fmt.Printf("resilience:   %d retries, %d failovers (served by %s)\n", cs.Retries, cs.Failovers, served)
	}
	return nil
}

// runJob submits a JobSpec to a sumjobd gateway and polls it to completion.
// The spec travels in the clear to the gateway — the gateway is the analyst
// side and does the encrypting — so this path needs no key material.
func runJob(baseURL, tenant, spec string, pollEvery time.Duration) error {
	if tenant == "" {
		return fmt.Errorf("-tenant is required with -jobd")
	}
	if spec == "" {
		return fmt.Errorf("-job is required with -jobd (inline JSON or @file)")
	}
	body := []byte(spec)
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return fmt.Errorf("reading -job file: %w", err)
		}
		body = data
	}
	baseURL = strings.TrimRight(baseURL, "/")

	req, err := http.NewRequest(http.MethodPost, baseURL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(jobs.TenantHeader, tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("submitting job: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("gateway rejected job (HTTP %d): %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		return fmt.Errorf("parsing submit response: %w", err)
	}
	fmt.Printf("job id:   %s\n", job.ID)
	fmt.Printf("trace:    %s/traces?id=%s\n", baseURL, job.ID)

	start := time.Now()
	for job.State == jobs.StateQueued || job.State == jobs.StateRunning {
		time.Sleep(pollEvery)
		resp, err := http.Get(baseURL + "/jobs/" + job.ID)
		if err != nil {
			return fmt.Errorf("polling job: %w", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s lost (HTTP %d): %s", job.ID, resp.StatusCode, strings.TrimSpace(string(raw)))
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			return fmt.Errorf("parsing status: %w", err)
		}
	}
	fmt.Printf("state:    %s after %v\n", job.State, time.Since(start).Round(time.Millisecond))
	if job.State == jobs.StateFailed {
		return fmt.Errorf("job failed: %s", job.Error)
	}
	out, err := json.MarshalIndent(job.Result, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("result:   %s\n", out)
	return nil
}

func buildSelection(n int, frac float64, indices string, seed int64) (*database.Selection, error) {
	if indices != "" {
		sel, err := database.NewSelection(n)
		if err != nil {
			return nil, err
		}
		for _, part := range strings.Split(indices, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad index %q: %w", part, err)
			}
			if i < 0 || i >= n {
				return nil, fmt.Errorf("index %d outside [0,%d)", i, n)
			}
			sel.Set(i)
		}
		return sel, nil
	}
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("selection fraction %v outside (0,1]", frac)
	}
	return database.GenerateSelection(n, int(float64(n)*frac), database.PatternRandom, seed)
}
