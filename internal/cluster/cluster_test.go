package cluster

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/metrics"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/wire"
)

var (
	tkOnce sync.Once
	tkKey  *paillier.PrivateKey
	tkErr  error
)

// testKey returns a shared 256-bit test key. Importing paillier also
// registers the scheme with the hello parser.
func testKey(t testing.TB) homomorphic.PrivateKey {
	t.Helper()
	tkOnce.Do(func() { tkKey, tkErr = paillier.KeyGen(rand.Reader, 256) })
	if tkErr != nil {
		t.Fatalf("KeyGen: %v", tkErr)
	}
	return paillier.SchemeKey{SK: tkKey}
}

func discardLogf(string, ...any) {}

// fixture builds a deterministic random table + selection and the
// cleartext oracle sum.
func fixture(t testing.TB, n, m int, seed int64) (*database.Table, *database.Selection, *big.Int) {
	t.Helper()
	table, err := database.Generate(n, database.DistUniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.GenerateSelection(n, m, database.PatternRandom, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	return table, sel, want
}

// startBackend serves one shard table on loopback TCP through the stock
// server runtime and returns its address.
func startBackend(t testing.TB, shard *database.Table) string {
	t.Helper()
	srv, err := server.New(shard, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv)
}

// startProxy hosts an aggregator over sm on the server runtime and returns
// its address plus the hosting server (for /stats assertions).
func startProxy(t testing.TB, sm *ShardMap, client *Client) (string, *server.Server) {
	t.Helper()
	agg, err := NewAggregator(sm, client)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewHandler(agg, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv), srv
}

func serveOn(t testing.TB, srv *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveListener(t, srv, ln)
	return ln.Addr().String()
}

// serveListener serves srv on ln until the test ends.
func serveListener(t testing.TB, srv *server.Server, ln net.Listener) {
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

// startCluster shards table over k backends (1 node per shard) and starts
// an aggregator in front; it returns the proxy address, the hosting
// server, and the fan-out client.
func startCluster(t testing.TB, table *database.Table, k int) (string, *server.Server, *Client) {
	t.Helper()
	groups := make([][]string, k)
	// Compute the ranges first, then start one backend per range.
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
	for i, r := range ranges {
		shardTable, err := table.Shard(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = []string{startBackend(t, shardTable)}
		ranges[i].Backends = groups[i]
	}
	sm, err := NewShardMap(ranges)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond, ProbeAfter: 50 * time.Millisecond})
	addr, srv := startProxy(t, sm, client)
	return addr, srv, client
}

// TestClusterEndToEnd is the headline acceptance test: k ∈ {1,2,4} shards
// over real TCP loopback, random database and selection, decrypted total
// equals the cleartext oracle for every k.
func TestClusterEndToEnd(t *testing.T) {
	sk := testKey(t)
	for _, k := range []int{1, 2, 4} {
		table, sel, want := fixture(t, 48, 20, int64(100+k))
		addr, _, client := startCluster(t, table, k)
		got, err := client.Query(context.Background(), []string{addr}, sk, sel, 7, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("k=%d: sum = %v, want %v", k, got, want)
		}
	}
}

// TestClusterSingleChunk exercises the no-batching path (whole vector in
// one chunk spanning every shard).
func TestClusterSingleChunk(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 30, 11, 7)
	addr, _, client := startCluster(t, table, 3)
	got, err := client.Query(context.Background(), []string{addr}, sk, sel, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// dyingBackend accepts connections, reads a little, then drops them — a
// backend killed mid-session. Returns its address and a stop func.
func dyingBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 512)
				_, _ = c.Read(buf) // let the session start, then die
				c.Close()
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestClusterFailover kills a shard's primary mid-run: the query must
// complete via the replica, and the failover must be visible in the
// aggregator's /stats counters.
func TestClusterFailover(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 40, 17, 31)

	half := table.Len() / 2
	shard0, err := table.Shard(0, half)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := table.Shard(half, table.Len())
	if err != nil {
		t.Fatal(err)
	}
	dead := dyingBackend(t) // primary of shard 1: dies mid-session
	live := startBackend(t, shard1)
	sm, err := NewShardMap([]Shard{
		{Lo: 0, Hi: half, Backends: []string{startBackend(t, shard0)}},
		{Lo: half, Hi: table.Len(), Backends: []string{dead, live}},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ClientConfig{Retries: 3, Backoff: 5 * time.Millisecond, ProbeAfter: time.Minute})
	addr, srv := startProxy(t, sm, client)

	got, err := client.Query(context.Background(), []string{addr}, sk, sel, 5, nil)
	if err != nil {
		t.Fatalf("query did not survive backend death: %v", err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", got, want)
	}

	cs := client.Metrics().Snapshot()
	if cs.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", cs.Failovers)
	}
	if bs := cs.Backends[dead]; bs.Errors < 1 {
		t.Errorf("dead backend errors = %d, want >= 1", bs.Errors)
	}
	if bs := cs.Backends[live]; bs.Sessions < 1 {
		t.Errorf("live replica sessions = %d, want >= 1", bs.Sessions)
	}
	// The hosting runtime completed the session despite the mid-run death
	// (it counts the completion before writing the reply we already hold).
	if got := srv.Metrics().SessionsCompleted.Value(); got != 1 {
		t.Errorf("proxy completed sessions = %d, want 1", got)
	}

	// A second query skips the dead primary without burning an attempt on
	// it (health window is a minute): no new errors against it.
	before := client.Metrics().Snapshot().Backends[dead].Sessions
	if _, err := client.Query(context.Background(), []string{addr}, sk, sel, 5, nil); err != nil {
		t.Fatalf("second query: %v", err)
	}
	after := client.Metrics().Snapshot().Backends[dead].Sessions
	if after != before {
		t.Errorf("dead backend was attempted again while down: %d -> %d sessions", before, after)
	}
}

// recorder captures the frames a tap forwarded, per direction.
type recorder struct {
	mu   sync.Mutex
	up   []wire.Frame // client-of-tap → target
	down []wire.Frame // target → client-of-tap
}

func (r *recorder) add(up bool, f wire.Frame) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := append([]byte(nil), f.Payload...)
	if up {
		r.up = append(r.up, wire.Frame{Type: f.Type, Payload: p})
	} else {
		r.down = append(r.down, wire.Frame{Type: f.Type, Payload: p})
	}
}

func (r *recorder) snapshot() (up, down []wire.Frame) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.Frame(nil), r.up...), append([]wire.Frame(nil), r.down...)
}

// startTap forwards loopback TCP to target, recording every frame.
func startTap(t *testing.T, target string, rec *recorder) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pump := func(src, dst net.Conn, up bool) {
		defer dst.Close()
		defer src.Close()
		for {
			f, _, err := wire.ReadFrame(src)
			if err != nil {
				return
			}
			rec.add(up, f)
			if _, err := wire.WriteFrame(dst, f.Type, f.Payload); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				b, err := net.Dial("tcp", target)
				if err != nil {
					c.Close()
					return
				}
				go pump(c, b, true)
				pump(b, c, false)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// RawFold is Π ct_i^{x_i}: what a server that did not rerandomize would
// send, computed one Paillier ScalarMul per row. It is exported for the
// wiretap tests of package cluster_test.
func RawFold(t *testing.T, key homomorphic.PublicKey, cts [][]byte, values func(i int) uint32) homomorphic.Ciphertext {
	t.Helper()
	pk := key.(paillier.Scheme).PK
	var acc *paillier.Ciphertext
	for i, raw := range cts {
		ct, err := pk.ParseCiphertext(raw)
		if err != nil {
			t.Fatal(err)
		}
		term, err := pk.ScalarMul(ct, big.NewInt(int64(values(i))))
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = term
		} else if acc, err = pk.Add(acc, term); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestClusterPrivacyInvariants records one session on every hop and checks
// the properties the trust argument rests on: each backend receives only
// ciphertexts covering its own row range; no reply on any hop is the raw
// product of the client's ciphertexts, because each shard's partial is
// rerandomized; the aggregator adds no randomness of its own, so the reply
// is exactly the product of the partials (the one partial for k = 1); and
// the client observes exactly one ciphertext — no per-shard partials.
func TestClusterPrivacyInvariants(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { checkPrivacyInvariants(t, k) })
	}
}

func checkPrivacyInvariants(t *testing.T, k int) {
	sk := testKey(t)
	pk := sk.PublicKey()
	width := pk.CiphertextSize()
	table, sel, want := fixture(t, 36, 15, 77)

	shards := make([]Shard, k)
	recs := make([]*recorder, k)
	for i := range shards {
		lo, hi := i*table.Len()/k, (i+1)*table.Len()/k
		sub, err := table.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = &recorder{}
		shards[i] = Shard{Lo: lo, Hi: hi, Backends: []string{startTap(t, startBackend(t, sub), recs[i])}}
	}
	sm, err := NewShardMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startProxy(t, sm, NewClient(ClientConfig{}))
	front := &recorder{}
	conn, err := net.Dial("tcp", startTap(t, addr, front))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	got, err := selectedsum.Query(wc, sk, sel, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	// The client saw exactly one inbound frame — the sum.
	_, _, _, framesIn := wc.Meter.Snapshot()
	if framesIn != 1 {
		t.Errorf("client received %d frames, want exactly 1 (the sum)", framesIn)
	}
	_, down := front.snapshot()
	if len(down) != 1 || down[0].Type != wire.MsgSum {
		t.Fatalf("the tap saw %d reply frames, want one sum", len(down))
	}
	reply := down[0].Payload

	// Each backend saw a hello scoped to its own range and chunks covering
	// exactly [Lo, Hi), and sent one partial: fresh, not the raw fold of the
	// slice it received, yet decrypting to its shard's sum.
	var partials []homomorphic.Ciphertext
	for i, rec := range recs {
		up, down := rec.snapshot()
		lo, hi := uint64(shards[i].Lo), uint64(shards[i].Hi)
		for _, f := range up {
			switch f.Type {
			case wire.MsgHello:
				h, err := wire.DecodeHello(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if h.RowOffset != lo || h.VectorLen != hi-lo {
					t.Errorf("backend %d hello scoped [%d,%d), want [%d,%d)", i, h.RowOffset, h.RowOffset+h.VectorLen, lo, hi)
				}
			case wire.MsgIndexChunk:
				c, err := wire.DecodeIndexChunk(f.Payload, width)
				if err != nil {
					t.Fatal(err)
				}
				if end := c.Offset + uint64(c.Count()); c.Offset < lo || end > hi {
					t.Errorf("backend %d received chunk [%d,%d) outside its range [%d,%d)", i, c.Offset, end, lo, hi)
				}
			}
		}
		received := chunkCiphertexts(t, rec, width)
		if uint64(len(received)) != hi-lo {
			t.Fatalf("backend %d received %d ciphertexts, want %d", i, len(received), hi-lo)
		}
		if len(down) != 1 || down[0].Type != wire.MsgSum {
			t.Fatalf("backend %d sent %d frames, want one sum", i, len(down))
		}
		partial, err := pk.ParseCiphertext(down[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		raw := RawFold(t, pk, received, func(j int) uint32 { return table.Value(int(lo) + j) })
		if string(partial.Bytes()) == string(raw.Bytes()) {
			t.Errorf("backend %d replied with the raw fold of the ciphertexts it received", i)
		}
		subSel, err := sel.Slice(int(lo), int(hi))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := table.Shard(int(lo), int(hi))
		if err != nil {
			t.Fatal(err)
		}
		shardSum, err := sub.SelectedSum(subSel)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := sk.Decrypt(partial); err != nil || dec.Cmp(shardSum) != 0 {
			t.Errorf("backend %d partial decrypts to %v (err %v), want %v", i, dec, err, shardSum)
		}
		partials = append(partials, partial)
	}

	// The aggregator multiplied the partials and added nothing.
	product := partials[0]
	for _, p := range partials[1:] {
		if product, err = pk.Add(product, p); err != nil {
			t.Fatal(err)
		}
	}
	if string(reply) != string(product.Bytes()) {
		t.Error("aggregator reply is not the product of the shard partials")
	}
	raw := RawFold(t, pk, chunkCiphertexts(t, front, width), func(j int) uint32 { return table.Value(j) })
	if string(reply) == string(raw.Bytes()) {
		t.Error("aggregator reply is the raw fold of the client's ciphertexts")
	}
}

// chunkCiphertexts returns every ciphertext of the chunks rec forwarded
// upstream, in order.
func chunkCiphertexts(t *testing.T, rec *recorder, width int) [][]byte {
	t.Helper()
	up, _ := rec.snapshot()
	var cts [][]byte
	for _, f := range up {
		if f.Type != wire.MsgIndexChunk {
			continue
		}
		c, err := wire.DecodeIndexChunk(f.Payload, width)
		if err != nil {
			t.Fatal(err)
		}
		for j := range c.Count() {
			cts = append(cts, c.At(j))
		}
	}
	return cts
}

// TestShardSessionGlobalOffsets exercises the selectedsum shard session
// directly: a sub-range fold addressed in global row coordinates.
func TestShardSessionGlobalOffsets(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table, sel, _ := fixture(t, 20, 8, 5)
	shard, err := table.Shard(12, 20)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := selectedsum.NewShardSession(pk, shard.Column(), 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	width := pk.CiphertextSize()
	body, err := selectedsum.EncryptRange(selectedsum.Online{PK: pk}, sel, 12, 20, width)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Absorb(&wire.IndexChunk{Offset: 12, Ciphertexts: body, Width: width}); err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	subSel, err := sel.Slice(12, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shard.SelectedSum(subSel)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("shard fold = %v, want %v", got, want)
	}

	// A chunk below the shard's base must be rejected, not wrap around.
	sess2, err := selectedsum.NewShardSession(pk, shard.Column(), 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Absorb(&wire.IndexChunk{Offset: 0, Ciphertexts: body, Width: width}); err == nil {
		t.Error("chunk below shard base accepted")
	}
}

var _ = metrics.ClusterSnapshot{} // keep the import in smoke builds
