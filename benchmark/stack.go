package main

import (
	"context"
	"embed"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/colstore"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// workload is one set of inputs and the deployment they run against.
type workload struct {
	name    string
	n       int // table rows
	keyBits int
	chunk   int // index encryptions per wire chunk; 0 sends one chunk
	clients int // closed-loop clients
	// shards > 0 puts an aggregator in front of that many backends, each
	// serving its range of the rows; 0 is one server over all of them.
	shards int
	// colstore backends serve an on-disk column store, the others the
	// in-memory table.
	colstore bool
	// queries are the column sets of the private queries one round of the
	// workload's ops sends, in order; the staged replay cycles through them.
	queries []wire.ColumnSet
	// pooled clients draw index encryptions from a replay pool; the others
	// encrypt online with the owner's CRT path.
	pooled bool
	// jobs workloads submit statistics jobs over HTTP to a journaling gateway
	// whose executor speaks CRC-trailed frames.
	jobs bool
}

var valueOnly = []wire.ColumnSet{wire.ColValue}

// jobMixQueries are the queries jobs.BuildPlan makes of one round of jobMix:
// variance and covariance fold value and square in one query, group-by sends
// one value query per group.
var jobMixQueries = []wire.ColumnSet{
	wire.ColValue | wire.ColSquare,                             // variance
	wire.ColValue,                                              // mean
	wire.ColValue,                                              // sum
	wire.ColValue, wire.ColValue, wire.ColValue, wire.ColValue, // groupby, jobGroups strata
	wire.ColValue | wire.ColSquare, // covariance
}

// opsPerRound is how many consecutive ops of a client hold one op of every
// kind the workload issues.
func (w workload) opsPerRound() int {
	if w.jobs {
		return len(jobMix)
	}
	return 1
}

// foldsSquares reports whether any query of w folds the 64-bit square column.
func (w workload) foldsSquares() bool {
	for _, cols := range w.queries {
		if cols.Has(wire.ColSquare) {
			return true
		}
	}
	return false
}

// The names are fixed: later issues state their predictions against them.
var workloads = []workload{
	{name: "online-direct", n: 2000, keyBits: 512, chunk: 100, clients: 1, queries: valueOnly},
	{name: "pooled-sharded", n: 20000, keyBits: 512, chunk: 1024, clients: 2, shards: 2, colstore: true, pooled: true, queries: valueOnly},
	{name: "small-sessions", n: 256, keyBits: 512, chunk: 0, clients: 2, shards: 2, colstore: true, pooled: true, queries: valueOnly},
	{name: "jobs-mixed", n: 2500, keyBits: 1024, chunk: 256, clients: 1, pooled: true, jobs: true, queries: jobMixQueries},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Keys are committed fixtures: rand.Prime is not deterministic even on a
// seeded reader, and exponentiation time depends on the modulus.
//
//go:embed testdata/key512.bin testdata/key1024.bin
var keyFixtures embed.FS

func loadKey(bits int) (*paillier.PrivateKey, error) {
	data, err := keyFixtures.ReadFile(fmt.Sprintf("testdata/key%d.bin", bits))
	if err != nil {
		return nil, err
	}
	sk := new(paillier.PrivateKey)
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("key fixture %d: %w", bits, err)
	}
	return sk, nil
}

const tenantName = "bench"

func discardLog(string, ...any) {}

// member is one listening runtime of a stack.
type member struct {
	srv  *server.Server
	done chan error
}

// stack is a workload's live deployment: every hop is a loopback TCP
// connection between production runtimes in this process.
type stack struct {
	w     workload
	sk    *paillier.PrivateKey
	key   homomorphic.PrivateKey
	table *database.Table
	slab  *slab

	backends []member
	proxy    *member
	fanout   *cluster.Client // the aggregator's client towards the backends
	stores   []*colstore.Store
	front    string // the address the clients dial

	client    *cluster.Client // the analyst side; its connections are counted
	wireBytes atomic.Int64

	gateway  *jobs.Gateway
	httpSrv  *http.Server
	httpDone chan error
	jobsURL  string
	labels   []int // group-by labels of the job mix
}

// countingConn adds every byte read or written to a shared total.
type countingConn struct {
	net.Conn
	total *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.total.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.total.Add(int64(n))
	return n, err
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func startMember(srv *server.Server) (member, string, error) {
	ln, err := listenLoopback()
	if err != nil {
		return member{}, "", err
	}
	m := member{srv: srv, done: make(chan error, 1)}
	go func() { m.done <- srv.Serve(ln) }()
	return m, ln.Addr().String(), nil
}

// waitAccepting polls addr until a connection is accepted or the deadline
// passes. The probe connection sends nothing and is closed at once.
func waitAccepting(addr string, deadline time.Time) error {
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not accepting: %w", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setUp builds w's deployment from the key fixture and the seed, under dir,
// and returns once the front listener accepts. traces, when non-nil, turns on
// per-request tracing in every runtime (the traced pass only).
func setUp(w workload, seed int64, dir string, traces *trace.Recorder) (*stack, error) {
	st := &stack{w: w}
	ok := false
	defer func() {
		if !ok {
			_ = st.shutDown() // the set-up error is the one to report
		}
	}()
	var err error
	if st.sk, err = loadKey(w.keyBits); err != nil {
		return nil, err
	}
	st.key = paillier.SchemeKey{SK: st.sk}
	if st.table, err = database.Generate(w.n, database.DistUniform, seed); err != nil {
		return nil, err
	}
	cfg := server.Config{Logf: discardLog, Traces: traces}

	// One backend per row range; a single range when nothing is sharded.
	ranges := max(w.shards, 1)
	shards := make([]cluster.Shard, ranges)
	for i := range shards {
		lo, hi := i*w.n/ranges, (i+1)*w.n/ranges
		rows, err := st.table.Shard(lo, hi)
		if err != nil {
			return nil, err
		}
		var src database.Source = rows
		if w.colstore {
			store, err := buildStore(rows, filepath.Join(dir, fmt.Sprintf("shard%d", i)), lo)
			if err != nil {
				return nil, err
			}
			st.stores = append(st.stores, store)
			src = store
		}
		srv, err := server.NewSource(src, cfg)
		if err != nil {
			return nil, err
		}
		m, addr, err := startMember(srv)
		if err != nil {
			return nil, err
		}
		st.backends = append(st.backends, m)
		shards[i] = cluster.Shard{Lo: lo, Hi: hi, Backends: []string{addr}}
		st.front = addr
	}
	if w.shards > 0 {
		sm, err := cluster.NewShardMap(shards)
		if err != nil {
			return nil, err
		}
		st.fanout = cluster.NewClient(cluster.ClientConfig{})
		agg, err := cluster.NewAggregator(sm, st.fanout)
		if err != nil {
			return nil, err
		}
		srv, err := server.NewHandler(agg, cfg)
		if err != nil {
			return nil, err
		}
		m, addr, err := startMember(srv)
		if err != nil {
			return nil, err
		}
		st.proxy, st.front = &m, addr
	}

	if w.pooled {
		if st.slab, err = fillSlab(st.sk, w.n); err != nil {
			return nil, err
		}
	}
	dialer := net.Dialer{Timeout: cluster.DefaultDialTimeout}
	st.client = cluster.NewClient(cluster.ClientConfig{
		UseCRC: w.jobs,
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, total: &st.wireBytes}, nil
		},
	})
	ready := st.front
	if w.jobs {
		if err := st.startGateway(seed, filepath.Join(dir, "jobs"), traces); err != nil {
			return nil, err
		}
		ready = st.httpSrv.Addr
	}
	if err := waitAccepting(ready, time.Now().Add(10*time.Second)); err != nil {
		return nil, err
	}
	ok = true
	return st, nil
}

// buildStore writes table as a column store under dir and reopens it
// read-only, the way sumserver -table-dir serves one. baseRow is the global
// index of its first row.
func buildStore(table *database.Table, dir string, baseRow int) (*colstore.Store, error) {
	store, err := colstore.BuildFrom(table, dir, colstore.Options{BaseRow: uint64(baseRow)})
	if err != nil {
		return nil, err
	}
	if err := store.Sync(); err != nil {
		store.Close()
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	return colstore.Open(dir, colstore.Options{ReadOnly: true})
}

func (st *stack) startGateway(seed int64, storeDir string, traces *trace.Recorder) error {
	gw, err := jobs.NewGateway(jobs.GatewayConfig{
		Schema: jobs.Schema{Rows: st.w.n, Columns: []string{"value"}},
		Exec: &jobs.Executor{
			Client:    st.client,
			Backends:  []string{st.front},
			Key:       st.key,
			ChunkSize: st.w.chunk,
			Pool:      st.newPool(),
			Traces:    traces,
		},
		Tenants:  []jobs.Tenant{{Name: tenantName, Weight: 1, Rate: 1e4, Burst: 1e4, MaxQueued: 16}},
		StoreDir: storeDir,
	})
	if err != nil {
		return err
	}
	st.gateway = gw
	st.labels = groupLabels(st.w.n, seed)
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	st.httpSrv = &http.Server{Addr: ln.Addr().String(), Handler: gw.Handler()}
	st.httpDone = make(chan error, 1)
	go func() { st.httpDone <- st.httpSrv.Serve(ln) }()
	st.jobsURL = "http://" + st.httpSrv.Addr + "/"
	return nil
}

// newPool returns a fresh replay position over the shared slab, or nil for a
// workload that encrypts online.
func (st *stack) newPool() homomorphic.EncryptorPool {
	if st.slab == nil {
		return nil
	}
	return &replayPool{slab: st.slab}
}

// shutDown drains every runtime front to back and waits for its goroutines.
// Only after it returns are the runtimes' counters final: they are bumped
// after the reply is flushed, so a client that has its answer may still be
// ahead of them.
func (st *stack) shutDown() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.httpSrv != nil {
		errs = append(errs, st.httpSrv.Shutdown(ctx))
		<-st.httpDone
	}
	if st.gateway != nil {
		st.gateway.Close()
	}
	stop := func(m member) {
		errs = append(errs, m.srv.Shutdown(ctx))
		<-m.done
	}
	if st.proxy != nil {
		stop(*st.proxy)
	}
	for _, m := range st.backends {
		stop(m)
	}
	for _, s := range st.stores {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}
