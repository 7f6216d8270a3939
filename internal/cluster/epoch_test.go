package cluster

import (
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/testutil"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// mustMap builds a shard map from 'lo-hi=backend;...' or dies.
func mustMap(t *testing.T, spec string) *ShardMap {
	t.Helper()
	m, err := ParseShardMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEpochsAdvance(t *testing.T) {
	e, err := NewEpochs(mustMap(t, "0-100=a"))
	if err != nil {
		t.Fatal(err)
	}
	epoch, m := e.Current()
	if epoch != 1 || m.Rows() != 100 {
		t.Fatalf("initial epoch = %d over %d rows, want 1 over 100", epoch, m.Rows())
	}

	// A pinned session holds the old map across an Advance.
	pinnedEpoch, pinnedMap := e.Current()

	next := mustMap(t, "0-50=a;50-100=b")
	got, err := e.Advance(next)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("Advance = epoch %d, want 2", got)
	}
	if epoch, m = e.Current(); epoch != 2 || m.Len() != 2 {
		t.Errorf("current = epoch %d with %d shards, want 2 with 2", epoch, m.Len())
	}
	if pinnedEpoch != 1 || pinnedMap.Len() != 1 || pinnedMap.Rows() != 100 {
		t.Errorf("pinned view changed under Advance: epoch %d, %d shards", pinnedEpoch, pinnedMap.Len())
	}

	// A successor map serving a different row count is a config error, not
	// a cut-over: resharding never grows the logical table.
	if _, err := e.Advance(mustMap(t, "0-101=a")); err == nil {
		t.Error("row-count-changing map accepted")
	}
	if epoch, _ = e.Current(); epoch != 2 {
		t.Errorf("failed Advance moved the epoch to %d", epoch)
	}
	if _, err := e.Advance(nil); err == nil {
		t.Error("nil map accepted")
	}
}

// TestEpochPinningEndToEnd is the live-resharding acceptance test: a k=2
// cluster takes continuous traced queries while Epochs.Advance, the cut-over
// sumproxy's POST /reshard makes, splits it to k=4. Every reply must be
// exact, every session must run entirely under a single epoch (its trace
// carries one epoch attr and exactly that epoch's shard fan-out), and the new
// backends' wiretaps must show only ciphertexts scoped to their own row
// ranges — privacy survives the migration.
func TestEpochPinningEndToEnd(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	const n = 48
	table, sel, want := fixture(t, n, 20, 91)

	// Old layout: two halves. New layout: four quarters, each behind a
	// wiretap so the privacy assertion sees exactly what they see.
	halves := [][2]int{{0, n / 2}, {n / 2, n}}
	quarters := [][2]int{{0, 12}, {12, 24}, {24, 36}, {36, 48}}
	oldShards := make([]Shard, len(halves))
	for i, r := range halves {
		st, err := table.Shard(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		oldShards[i] = Shard{Lo: r[0], Hi: r[1], Backends: []string{startBackend(t, st)}}
	}
	recs := make([]*recorder, len(quarters))
	newAddr := make(map[[2]int]string, len(quarters))
	for i, r := range quarters {
		st, err := table.Shard(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = &recorder{}
		newAddr[r] = startTap(t, startBackend(t, st), recs[i])
	}

	sm, err := NewShardMap(oldShards)
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := NewEpochs(sm)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond})
	agg, err := NewEpochAggregator(epochs, client, AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aggRec := trace.NewRecorder(64)
	srv, err := server.NewHandler(agg, server.Config{Logf: discardLogf, Traces: aggRec})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, srv)

	// query runs one traced session straight over a fresh conn and returns
	// the trace ID; every reply is checked exact on the spot.
	query := func() trace.ID {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return trace.ID{}
		}
		defer c.Close()
		wc := wire.NewConn(c)
		id := trace.NewID()
		wc.SetTraceID(id)
		got, err := selectedsum.Query(wc, sk, sel, 9, nil)
		if err != nil {
			t.Errorf("query: %v", err)
			return trace.ID{}
		}
		if got.Cmp(want) != 0 {
			t.Errorf("sum = %v, want %v", got, want)
		}
		// Privacy: the client sees one inbound frame — the combined sum,
		// never per-shard partials, under either epoch.
		_, _, _, framesIn := wc.Meter.Snapshot()
		if framesIn != 1 {
			t.Errorf("client received %d frames, want 1", framesIn)
		}
		return id
	}

	// Live load: a background goroutine queries continuously across the
	// cut-over while the foreground drives the reshard.
	var bg []trace.ID
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				bg = append(bg, query())
			}
		}
	}()

	var ids []trace.ID
	ids = append(ids, query(), query()) // pinned to epoch 1

	newShards := make([]Shard, len(quarters))
	for i, r := range quarters {
		newShards[i] = Shard{Lo: r[0], Hi: r[1], Backends: []string{newAddr[r]}}
	}
	newMap, err := NewShardMap(newShards)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := epochs.Advance(newMap)
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("advance -> epoch %d, want 2", epoch)
	}

	ids = append(ids, query(), query()) // pinned to epoch 2
	close(stop)
	wg.Wait()
	ids = append(ids, bg...)

	// Every session ran under exactly one epoch: its trace names that epoch
	// and fans out to exactly that epoch's shard count.
	sawEpoch := map[string]int{}
	for _, id := range ids {
		if id == (trace.ID{}) {
			continue
		}
		var snaps []trace.Snapshot
		testutil.Eventually(t, 2*time.Second, "the session's trace", func() bool {
			snaps = aggRec.Find(id)
			return len(snaps) > 0
		})
		if len(snaps) != 1 {
			t.Fatalf("trace %s: %d snapshots in the ring", id, len(snaps))
		}
		snap := snaps[0]
		ep := snap.Attrs["epoch"]
		if ep != "1" && ep != "2" {
			t.Fatalf("trace %s: epoch attr = %q, want 1 or 2", id, ep)
		}
		sawEpoch[ep]++
		wantShards := 2
		if ep == "2" {
			wantShards = 4
		}
		if got := snap.Attrs["shards"]; got != strconv.Itoa(wantShards) {
			t.Errorf("trace %s: epoch %s session fanned to %s shards, want %d", id, ep, got, wantShards)
		}
		shardSpans := 0
		for _, sp := range snap.Spans {
			if strings.HasPrefix(sp.Name, "shard") {
				shardSpans++
			}
		}
		if shardSpans != wantShards {
			t.Errorf("trace %s: epoch %s session has %d shard spans, want %d", id, ep, shardSpans, wantShards)
		}
	}
	if sawEpoch["1"] == 0 || sawEpoch["2"] == 0 {
		t.Fatalf("load did not straddle the cut-over: %v", sawEpoch)
	}

	// Wiretap invariant on the post-reshard backends: every chunk a quarter
	// backend received is scoped inside its own row range, and each of its
	// sessions covered that range exactly once.
	for i, r := range quarters {
		lo, hi := uint64(r[0]), uint64(r[1])
		up, _ := recs[i].snapshot()
		var covered uint64
		sessions := 0
		width := sk.PublicKey().CiphertextSize()
		for _, f := range up {
			switch f.Type {
			case wire.MsgHello:
				h, err := wire.DecodeHello(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if h.RowOffset != lo || h.VectorLen != hi-lo {
					t.Errorf("quarter %d hello scoped [%d,%d), want [%d,%d)", i, h.RowOffset, h.RowOffset+h.VectorLen, lo, hi)
				}
				sessions++
			case wire.MsgIndexChunk:
				c, err := wire.DecodeIndexChunk(f.Payload, width)
				if err != nil {
					t.Fatal(err)
				}
				if c.Offset < lo || c.Offset+uint64(c.Count()) > hi {
					t.Errorf("quarter %d received chunk [%d,%d) outside [%d,%d)", i, c.Offset, c.Offset+uint64(c.Count()), lo, hi)
				}
				covered += uint64(c.Count())
			}
		}
		if sessions == 0 {
			t.Errorf("quarter %d served no sessions after cut-over", i)
		}
		if covered != uint64(sessions)*(hi-lo) {
			t.Errorf("quarter %d: %d ciphertexts over %d sessions, want %d per session", i, covered, sessions, hi-lo)
		}
	}
}
