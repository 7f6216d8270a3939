// Wiretap privacy of the slot-packed group-by, end to end: gateway →
// aggregator → two shards. Lives in package cluster_test beside the job-level
// chaos suite because it drives internal/jobs, which imports cluster.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/big"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/jobs"
	"privstats/internal/metrics"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/testutil"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// wireTap is everything one dialled connection carried, per direction.
type wireTap struct {
	mu       sync.Mutex
	up, down bytes.Buffer
}

type tappedConn struct {
	net.Conn
	tap *wireTap
}

func (c tappedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tap.mu.Lock()
	c.tap.up.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

func (c tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.down.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

// tapSet taps every connection one cluster client dials.
type tapSet struct {
	mu   sync.Mutex
	taps []*wireTap
}

func (s *tapSet) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	tap := &wireTap{}
	s.mu.Lock()
	s.taps = append(s.taps, tap)
	s.mu.Unlock()
	return tappedConn{Conn: conn, tap: tap}, nil
}

// session is one tapped connection's frames, decoded.
type session struct {
	hello       *wire.Hello
	ciphertexts [][]byte // the uploaded vector, entry by entry
	sums        [][]byte // the reply
}

// sessions decodes every tapped connection and holds each frame to the
// protocol's own encoding: a frame that carried anything beside the hello
// fields, fixed-width ciphertexts and the sums would not re-encode to itself.
func (s *tapSet) sessions(t *testing.T, width int) []session {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []session
	for _, tap := range s.taps {
		tap.mu.Lock()
		up := bytes.NewReader(append([]byte(nil), tap.up.Bytes()...))
		down := bytes.NewReader(append([]byte(nil), tap.down.Bytes()...))
		tap.mu.Unlock()
		var ses session
		for up.Len() > 0 {
			f, _, err := wire.ReadFrame(up)
			if err != nil {
				t.Fatalf("tapped upload does not parse: %v", err)
			}
			switch f.Type {
			case wire.MsgHello:
				h, err := wire.DecodeHello(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(h.Encode(), f.Payload) {
					t.Errorf("hello frame carries bytes beyond its fields")
				}
				ses.hello = h
			case wire.MsgIndexChunk:
				c, err := wire.DecodeIndexChunk(f.Payload, width)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(c.Encode(), f.Payload) {
					t.Errorf("chunk frame carries bytes beyond its ciphertexts")
				}
				for i := 0; i < c.Count(); i++ {
					ses.ciphertexts = append(ses.ciphertexts, append([]byte(nil), c.At(i)...))
				}
			case wire.MsgDone:
				if len(f.Payload) != 0 {
					t.Errorf("done frame carries %d bytes", len(f.Payload))
				}
			default:
				t.Errorf("unexpected frame type %#x in an upload", byte(f.Type))
			}
		}
		for down.Len() > 0 {
			f, _, err := wire.ReadFrame(down)
			if err != nil {
				t.Fatalf("tapped reply does not parse: %v", err)
			}
			if f.Type != wire.MsgSum || len(f.Payload) != width {
				t.Errorf("reply frame type %#x of %d bytes, want one %d-byte sum", byte(f.Type), len(f.Payload), width)
			}
			ses.sums = append(ses.sums, append([]byte(nil), f.Payload...))
		}
		out = append(out, ses)
	}
	return out
}

func TestPackedGroupByWiretapPrivacy(t *testing.T) {
	testutil.GuardGoroutines(t)
	const n, groups, split = 36, 4, 20
	sk := chaosJobKey(t)
	pk := sk.PublicKey()
	width := pk.CiphertextSize()
	table, err := database.Generate(n, database.DistUniform, 2222)
	if err != nil {
		t.Fatal(err)
	}

	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logf := func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logBuf, format+"\n", args...)
		logMu.Unlock()
	}

	// Two traced shards behind a traced aggregator, every hop tapped.
	var recorders []*trace.Recorder
	var registry metrics.Registry
	traced := func() *trace.Recorder {
		rec := trace.NewRecorder(8)
		recorders = append(recorders, rec)
		return rec
	}
	listen := func(srv *server.Server) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		chaosJobServe(t, srv, ln)
		registry = append(registry, srv.Metrics())
		return ln.Addr().String()
	}
	ranges := []cluster.Shard{{Lo: 0, Hi: split}, {Lo: split, Hi: n}}
	for i := range ranges {
		shard, err := table.Shard(ranges[i].Lo, ranges[i].Hi)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(shard, server.Config{Logf: logf, Traces: traced()})
		if err != nil {
			t.Fatal(err)
		}
		ranges[i].Backends = []string{listen(srv)}
	}
	sm, err := cluster.NewShardMap(ranges)
	if err != nil {
		t.Fatal(err)
	}
	shardTaps, frontTaps := &tapSet{}, &tapSet{}
	fanout := cluster.NewClient(cluster.ClientConfig{Dial: shardTaps.dial})
	agg, err := cluster.NewAggregator(sm, fanout)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv, err := server.NewHandler(agg, server.Config{Logf: logf, Traces: traced()})
	if err != nil {
		t.Fatal(err)
	}
	front := listen(aggSrv)

	// The gateway: stock-fed, so every uploaded entry starts as a pooled E(0).
	store := paillier.NewBitStoreOwner(sk.(paillier.SchemeKey).SK)
	if err := store.Fill(n, 0); err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient(cluster.ClientConfig{Dial: frontTaps.dial})
	g, err := jobs.NewGateway(jobs.GatewayConfig{
		Schema: jobs.Schema{Rows: n, Columns: []string{"value"}},
		Exec: &jobs.Executor{
			Client:    client,
			Backends:  []string{front},
			Key:       sk,
			ChunkSize: 8,
			Pool:      paillier.SchemeBitStore{Store: store},
			Traces:    traced(),
		},
		Tenants: []jobs.Tenant{{Name: "acme", Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 8}},
		Logf:    logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	registry = append(registry, fanout.Metrics(), client.Metrics(), g.Metrics())

	// Rows 3..30 of four strata, straddling the shard boundary.
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i*7 + 3) % groups
	}
	job, err := g.Submit("acme", &jobs.JobSpec{
		Op:        jobs.OpGroupBy,
		Selection: jobs.SelectionSpec{Ranges: [][2]int{{3, 31}}},
		Params:    &jobs.GroupByParams{Labels: labels, Groups: groups},
	})
	if err != nil {
		t.Fatal(err)
	}
	job = chaosWaitJob(t, g, job.ID)
	if job.State != jobs.StateDone {
		t.Fatalf("group-by failed: %s", job.Error)
	}
	id, err := trace.ParseID(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recorders {
		testutil.Eventually(t, 5*time.Second, "the job's trace at every hop", func() bool { return len(rec.Find(id)) > 0 })
	}

	// The secrets: the slot constants, the packed plaintext, the group sums.
	slotBits := uint(32 + 6) // 32-bit values, n < 2^6
	packed := new(big.Int)
	secrets := map[string]*big.Int{}
	for gi, row := range job.Result.Groups {
		sum := new(big.Int)
		for i := 3; i < 31; i++ {
			if labels[i] == gi {
				sum.Add(sum, big.NewInt(int64(table.Value(i))))
			}
		}
		if row.Sum != sum.String() {
			t.Fatalf("group %d: sum %s, oracle %s", gi, row.Sum, sum)
		}
		unit := new(big.Int).Lsh(big.NewInt(1), uint(gi)*slotBits)
		packed.Add(packed, new(big.Int).Mul(unit, sum))
		secrets[fmt.Sprintf("sum of group %d", gi)] = sum
		if gi > 0 {
			secrets[fmt.Sprintf("weight of slot %d", gi)] = unit
		}
	}
	secrets["packed plaintext"] = packed

	// One upload, whatever strata the selection met; no entry of it repeats.
	fronts := frontTaps.sessions(t, width)
	if len(fronts) != 1 || fronts[0].hello == nil || fronts[0].hello.VectorLen != n || len(fronts[0].ciphertexts) != n {
		t.Fatalf("gateway opened %d sessions (%+v), want one upload of %d entries", len(fronts), fronts, n)
	}
	shards := shardTaps.sessions(t, width)
	if len(shards) != 2 {
		t.Fatalf("aggregator opened %d shard sessions, want 2", len(shards))
	}
	for _, ses := range append(fronts, shards...) {
		seen := map[string]bool{}
		for _, ct := range ses.ciphertexts {
			if seen[string(ct)] {
				t.Fatalf("a ciphertext repeats within one upload")
			}
			seen[string(ct)] = true
		}
	}

	// Every reply is rerandomized: it decrypts to the fold of the upload it
	// answers but is not the raw product of that upload's ciphertexts.
	check := func(name string, ses session, values func(i int) uint32, want *big.Int) {
		t.Helper()
		if len(ses.sums) != 1 {
			t.Fatalf("%s: %d reply frames, want 1", name, len(ses.sums))
		}
		raw := cluster.RawFold(t, pk, ses.ciphertexts, values)
		if bytes.Equal(ses.sums[0], raw.Bytes()) {
			t.Errorf("%s: the reply is the raw product of the uploaded ciphertexts", name)
		}
		reply, err := pk.ParseCiphertext(ses.sums[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(reply)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := sk.Decrypt(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(folded) != 0 || (want != nil && got.Cmp(want) != 0) {
			t.Errorf("%s: reply decrypts to %v, the upload folds to %v, want %v", name, got, folded, want)
		}
	}
	check("aggregator", fronts[0], func(i int) uint32 { return table.Value(i) }, packed)
	for _, ses := range shards {
		off := int(ses.hello.RowOffset)
		check(fmt.Sprintf("shard at row %d", off), ses, func(i int) uint32 { return table.Value(off + i) }, nil)
	}

	// No secret and no ciphertext in any trace, metric or log line.
	var surfaces bytes.Buffer
	for _, rec := range recorders {
		rr := httptest.NewRecorder()
		rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
		surfaces.Write(rr.Body.Bytes())
	}
	if err := registry.WriteText(&surfaces, time.Now()); err != nil {
		t.Fatal(err)
	}
	logMu.Lock()
	surfaces.Write(logBuf.Bytes())
	logMu.Unlock()
	text := strings.ToLower(surfaces.String())
	if !strings.Contains(text, job.ID) {
		t.Fatalf("the surfaces do not mention job %s: nothing was collected", job.ID)
	}
	for name, v := range secrets {
		for _, form := range []string{v.String(), v.Text(16)} {
			if len(form) >= 8 && strings.Contains(text, form) {
				t.Errorf("the %s (%s) appears in a trace, metric or log line", name, form)
			}
		}
	}
	for _, ses := range append(fronts, shards...) {
		for _, ct := range append(ses.ciphertexts, ses.sums...) {
			if bytes.Contains(surfaces.Bytes(), ct[:16]) || strings.Contains(text, hex.EncodeToString(ct[:16])) {
				t.Fatalf("ciphertext bytes appear in a trace, metric or log line")
			}
		}
	}
}
