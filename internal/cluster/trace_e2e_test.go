package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/metrics"
	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/testutil"
	"privstats/internal/trace"
)

// End-to-end trace propagation: one client-minted trace ID rides the hello
// trailer through the aggregator's fan-out into every backend shard, so the
// aggregator's /traces and each shard's /traces hold the same ID — the
// "follow one query through the whole cluster" workflow. The privacy test
// at the bottom is the counterpart contract: those traces (and the logs)
// carry timings and topology only, never ciphertext or selection material.

// startTracedCluster is startCluster with a trace recorder on every node. It
// returns the aggregator's address, runtime, fan-out client and recorder,
// then the shards' recorders and runtimes.
func startTracedCluster(t *testing.T, table *database.Table, k int, logf func(string, ...any)) (string, *server.Server, *Client, *trace.Recorder, []*trace.Recorder, []*server.Server) {
	t.Helper()
	ranges := make([]Shard, k)
	lo := 0
	for i := 0; i < k; i++ {
		rows := table.Len() / k
		if i < table.Len()%k {
			rows++
		}
		ranges[i] = Shard{Lo: lo, Hi: lo + rows}
		lo += rows
	}
	shardRecs := make([]*trace.Recorder, k)
	shardSrvs := make([]*server.Server, k)
	for i, r := range ranges {
		shardTable, err := table.Shard(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		shardRecs[i] = trace.NewRecorder(8)
		shardSrvs[i], err = server.New(shardTable, server.Config{Logf: logf, Traces: shardRecs[i]})
		if err != nil {
			t.Fatal(err)
		}
		ranges[i].Backends = []string{serveOn(t, shardSrvs[i])}
	}
	sm, err := NewShardMap(ranges)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond, ProbeAfter: 50 * time.Millisecond})
	agg, err := NewAggregator(sm, client)
	if err != nil {
		t.Fatal(err)
	}
	aggRec := trace.NewRecorder(8)
	srv, err := server.NewHandler(agg, server.Config{Logf: logf, Traces: aggRec})
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv), srv, client, aggRec, shardRecs, shardSrvs
}

// spanSum adds up the named (sequential, compute-only) phase spans of a
// snapshot; concurrent fan-out spans are deliberately not in the list.
func spanSum(snap trace.Snapshot, phases ...string) time.Duration {
	var sum time.Duration
	for _, sp := range snap.Spans {
		for _, p := range phases {
			if sp.Name == p {
				sum += time.Duration(sp.DurNanos)
			}
		}
	}
	return sum
}

func TestTracePropagationEndToEnd(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	const k = 2
	table, sel, want := fixture(t, 48, 20, 71)
	addr, srv, aggClient, aggRec, shardRecs, _ := startTracedCluster(t, table, k, discardLogf)

	id := trace.NewID()
	cl := NewClient(ClientConfig{Retries: 1, Backoff: 5 * time.Millisecond})
	start := time.Now()
	var sum fmt.Stringer
	_, err := cl.Do(context.Background(), []string{addr}, func(s *Session) error {
		s.Conn.SetTraceID(id)
		got, err := selectedsum.Query(s.Conn, sk, sel, 9, nil)
		if err != nil {
			return err
		}
		sum = got
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != want.String() {
		t.Errorf("sum = %v, want %v", sum, want)
	}

	// Every runtime hands its trace to its ring before it writes its last
	// reply frame, so the trace is in every ring once the client has its
	// sum.
	if n := len(aggRec.Find(id)); n != 1 {
		t.Fatalf("aggregator ring holds %d traces of the query, want 1", n)
	}
	for i, r := range shardRecs {
		if n := len(r.Find(id)); n != 1 {
			t.Fatalf("shard%d ring holds %d traces of the query, want 1", i, n)
		}
	}

	agg := aggRec.Find(id)[0]
	if agg.Role != "aggregator" {
		t.Errorf("aggregator trace role = %q", agg.Role)
	}
	if got := spanSum(agg, "hello", "split", "combine"); got > wall {
		t.Errorf("aggregator phase spans sum to %v > client wall-clock %v", got, wall)
	}
	// Each shard dispatch produced a span naming the backend it landed on.
	spanNames := map[string]map[string]string{}
	for _, sp := range agg.Spans {
		spanNames[sp.Name] = sp.Attrs
	}
	for i := 0; i < k; i++ {
		attrs, ok := spanNames[fmt.Sprintf("shard%d", i)]
		if !ok {
			t.Fatalf("aggregator trace missing shard%d span (have %v)", i, agg.Spans)
		}
		if attrs["backend"] == "" || attrs["attempts"] != "1" {
			t.Errorf("shard%d span attrs = %v, want backend set and attempts=1", i, attrs)
		}
	}
	for i, rec := range shardRecs {
		snap := rec.Find(id)[0]
		if snap.Role != "server" {
			t.Errorf("shard%d trace role = %q", i, snap.Role)
		}
		if got := spanSum(snap, "hello", "absorb", "finalize"); got > wall {
			t.Errorf("shard%d phase spans sum to %v > client wall-clock %v", i, got, wall)
		}
	}

	// The /traces HTTP surface serves the same trace by ?id=.
	rr := httptest.NewRecorder()
	aggRec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces?id="+id.String(), nil))
	var doc struct {
		Traces []trace.Snapshot `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/traces JSON: %v", err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].ID != id.String() {
		t.Errorf("/traces?id= returned %d traces, want the one", len(doc.Traces))
	}

	// The aggregator counted its session before it wrote the reply.
	if got := srv.Metrics().SessionsCompleted.Value(); got != 1 {
		t.Fatalf("aggregator completed sessions = %d, want 1", got)
	}
	// /metrics and /stats must tell the same story: scrape both off the
	// proxy's metric sets and compare the shared counters. A session's
	// byte counts move once its last write has returned, after the client
	// holds the reply, so drain the proxy first: after Shutdown returns no
	// counter moves.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("draining the proxy: %v", err)
	}
	prr := httptest.NewRecorder()
	metrics.Registry{srv.Metrics(), aggClient.Metrics()}.ServeHTTP(prr, httptest.NewRequest("GET", "/metrics", nil))
	vals, err := testutil.ParseProm(prr.Body.String())
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	srr := httptest.NewRecorder()
	metrics.StatsHandler(func() any {
		return metrics.ProxySnapshot{Server: srv.Metrics().Snapshot(time.Now()), Cluster: aggClient.Metrics().Snapshot()}
	}).ServeHTTP(srr, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Server struct {
			Sessions struct {
				Started   int64 `json:"started"`
				Completed int64 `json:"completed"`
				Failed    int64 `json:"failed"`
			} `json:"sessions"`
			Bytes struct {
				In  int64 `json:"in"`
				Out int64 `json:"out"`
			} `json:"bytes"`
		} `json:"server"`
		Cluster struct {
			Queries   int64 `json:"queries"`
			Failovers int64 `json:"failovers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(srr.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/stats JSON: %v", err)
	}
	for key, want := range map[string]int64{
		`privstats_sessions_total{state="started"}`:        stats.Server.Sessions.Started,
		`privstats_sessions_total{state="completed"}`:      stats.Server.Sessions.Completed,
		`privstats_sessions_total{state="failed"}`:         stats.Server.Sessions.Failed,
		`privstats_transport_bytes_total{direction="in"}`:  stats.Server.Bytes.In,
		`privstats_transport_bytes_total{direction="out"}`: stats.Server.Bytes.Out,
		"privstats_cluster_queries_total":                  stats.Cluster.Queries,
		"privstats_cluster_failovers_total":                stats.Cluster.Failovers,
	} {
		if got, ok := vals[key]; !ok || got != float64(want) {
			t.Errorf("/metrics %s = %v (present=%v), /stats says %d", key, got, ok, want)
		}
	}
	if stats.Server.Sessions.Started == 0 {
		t.Error("stats show zero sessions — comparison was vacuous")
	}
}

// TestUntracedQueryLeavesRingsEmpty is the no-trailer⇒no-trace half of the
// interop contract, through the full cluster: an old-style client (no trace
// ID) completes fine and NO node retains a trace.
func TestUntracedQueryLeavesRingsEmpty(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 30, 12, 73)
	addr, aggSrv, _, aggRec, shardRecs, shardSrvs := startTracedCluster(t, table, 2, discardLogf)

	cl := NewClient(ClientConfig{Retries: 1, Backoff: 5 * time.Millisecond})
	got, err := cl.Query(context.Background(), []string{addr}, sk, sel, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// A runtime hands a session's trace to its ring before it counts the
	// session complete, and both happen before its last reply frame: once
	// the client has its sum, every runtime has counted its session and any
	// trace it was going to keep is in a ring.
	for i, s := range append([]*server.Server{aggSrv}, shardSrvs...) {
		if got := s.Metrics().SessionsCompleted.Value(); got != 1 {
			t.Fatalf("runtime %d completed sessions = %d, want 1", i, got)
		}
	}
	if n := aggRec.Len(); n != 0 {
		t.Errorf("aggregator ring holds %d traces from an untraced query", n)
	}
	for i, r := range shardRecs {
		if n := r.Len(); n != 0 {
			t.Errorf("shard%d ring holds %d traces from an untraced query", i, n)
		}
	}
}

// tapConn copies both directions of a connection into shared buffers — the
// privacy test's wiretap on what the client actually uploads/downloads.
type tapConn struct {
	net.Conn
	mu       *sync.Mutex
	up, down *bytes.Buffer
}

func (c tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.mu.Lock()
		c.up.Write(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.down.Write(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

// TestTracesAndLogsCarryNoCiphertext is DESIGN.md §12's enforcement: tap the
// actual wire bytes of a traced query (encrypted index vector up, encrypted
// sums down), then prove no window of that material — raw or hex — appears
// in any node's trace JSON or log output. Structural backstop: every span
// attribute is bounded far below one ciphertext.
func TestTracesAndLogsCarryNoCiphertext(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, _ := fixture(t, 32, 14, 77)

	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logf := func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logBuf, format+"\n", args...)
		logMu.Unlock()
	}
	addr, _, _, aggRec, shardRecs, _ := startTracedCluster(t, table, 2, logf)

	var tapMu sync.Mutex
	var up, down bytes.Buffer
	cl := NewClient(ClientConfig{
		Retries: 1,
		Backoff: 5 * time.Millisecond,
		Dial: func(ctx context.Context, network, dialAddr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, network, dialAddr)
			if err != nil {
				return nil, err
			}
			return tapConn{Conn: c, mu: &tapMu, up: &up, down: &down}, nil
		},
	})

	id := trace.NewID()
	_, err := cl.Do(context.Background(), []string{addr}, func(s *Session) error {
		s.Conn.SetTraceID(id)
		_, qerr := selectedsum.Query(s.Conn, sk, sel, 8, nil)
		return qerr
	})
	if err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "the aggregator's trace", func() bool {
		return len(aggRec.Find(id)) > 0
	})

	// Collect every observability surface: all trace JSON plus the logs.
	var surfaces []byte
	for _, rec := range append([]*trace.Recorder{aggRec}, shardRecs...) {
		rr := httptest.NewRecorder()
		rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
		surfaces = append(surfaces, rr.Body.Bytes()...)
	}
	logMu.Lock()
	surfaces = append(surfaces, logBuf.Bytes()...)
	logMu.Unlock()

	// The uploaded stream past the hello is ciphertext (the encrypted index
	// vector); the downloaded stream carries the encrypted sum. Sample
	// 16-byte windows across both and require each to be absent — raw and
	// hex — from every surface.
	tapMu.Lock()
	streams := [][]byte{append([]byte(nil), up.Bytes()...), append([]byte(nil), down.Bytes()...)}
	tapMu.Unlock()
	const win = 16
	checked := 0
	for si, stream := range streams {
		if len(stream) < win {
			t.Fatalf("stream %d too short (%d bytes) — tap broken", si, len(stream))
		}
		for off := 0; off+win <= len(stream); off += 256 {
			w := stream[off : off+win]
			if bytes.Contains(surfaces, w) {
				t.Errorf("raw wire bytes at stream %d offset %d appear in traces/logs", si, off)
			}
			hexW := hex.EncodeToString(w)
			if strings.Contains(strings.ToLower(string(surfaces)), hexW) {
				t.Errorf("hex of wire bytes at stream %d offset %d appears in traces/logs: %s", si, off, hexW)
			}
			checked++
		}
	}
	if checked < 8 {
		t.Fatalf("only %d windows checked — streams unexpectedly small", checked)
	}

	// Structural backstop: no attribute value is big enough to smuggle a
	// ciphertext (the key's ciphertexts are hundreds of hex chars).
	for _, rec := range append([]*trace.Recorder{aggRec}, shardRecs...) {
		for _, snap := range rec.Recent(8) {
			for k, v := range snap.Attrs {
				if len(v) > 128 {
					t.Errorf("trace attr %q is %d bytes — exceeds the privacy bound", k, len(v))
				}
			}
			for _, sp := range snap.Spans {
				for k, v := range sp.Attrs {
					if len(v) > 128 {
						t.Errorf("span %s attr %q is %d bytes — exceeds the privacy bound", sp.Name, k, len(v))
					}
				}
			}
		}
	}
}
