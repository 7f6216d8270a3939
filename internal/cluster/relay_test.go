package cluster

import (
	"context"
	"math/big"
	"net"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/server"
	"privstats/internal/wire"
)

// TestHedgeLoserKeepsRelayBuffers: a shard's primary stalls after its first
// chunk, so a hedge wins the shard and the session replies while the primary's
// dispatch is still replaying the relay buffers. A second session, with the
// opposite selection, must not get those buffers: the stalled dispatch,
// released only after it, still delivers the first session's chunks byte for
// byte. Once the dispatch has returned, both sessions' buffers are on the
// free list for the next.
func TestHedgeLoserKeepsRelayBuffers(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const n, chunk = 16, 4
	table, sel, want := fixture(t, n, 7, 61)
	flipped, err := database.NewSelection(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if sel.Bit(i) == 0 {
			flipped.Set(i)
		}
	}
	fast := startBackend(t, table)

	gate := make(chan struct{})
	seen := make(chan []wire.Frame, 1) // the chunks the stalled dispatch delivered
	fanout := NewClient(ClientConfig{
		Retries:    -1,
		IOTimeout:  10 * time.Second,
		ProbeAfter: time.Minute,
		Dial: pipeDialer("stalls", func(conn net.Conn) {
			defer conn.Close()
			c := wire.NewConn(conn)
			var chunks []wire.Frame
			defer func() { seen <- chunks }()
			for {
				f, err := c.Recv()
				if err != nil {
					return
				}
				switch f.Type {
				case wire.MsgIndexChunk:
					f.Payload = append([]byte(nil), f.Payload...)
					chunks = append(chunks, f)
					if len(chunks) == 1 {
						<-gate
					}
				case wire.MsgDone:
					return // every chunk is in; hang up instead of replying
				}
			}
		}),
	})
	sm, err := NewShardMap([]Shard{{Lo: 0, Hi: n, Backends: []string{"stalls", fast}}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregatorWithConfig(sm, fanout, AggregatorConfig{HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewHandler(agg, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, srv)
	query := func(s *database.Selection) *big.Int {
		t.Helper()
		got, err := NewClient(ClientConfig{Retries: -1}).Query(context.Background(), []string{addr}, sk, s, chunk, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	if got := query(sel); got.Cmp(want) != 0 {
		t.Fatalf("hedged session: sum %v, want %v", got, want)
	}
	// The stalled dispatch holds the first session's buffers; the second
	// session runs on the fast backend alone and copies its chunks into
	// whatever buffers the aggregator hands it.
	direct, err := NewShardMap([]Shard{{Lo: 0, Hi: n, Backends: []string{fast}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Epochs().Advance(direct); err != nil {
		t.Fatal(err)
	}
	wantFlipped, err := table.SelectedSum(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if got := query(flipped); got.Cmp(wantFlipped) != 0 {
		t.Fatalf("second session: sum %v, want %v", got, wantFlipped)
	}
	close(gate)

	chunks := <-seen
	if len(chunks) != n/chunk {
		t.Fatalf("the stalled dispatch delivered %d chunks, want %d", len(chunks), n/chunk)
	}
	width := pk.CiphertextSize()
	for _, f := range chunks {
		c, err := wire.DecodeIndexChunk(f.Payload, width)
		if err != nil {
			t.Fatal(err)
		}
		for k := range c.Count() {
			ct, err := pk.ParseCiphertext(c.Ciphertexts[k*width : (k+1)*width])
			if err != nil {
				t.Fatal(err)
			}
			bit, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			row := int(c.Offset) + k
			if bit.Uint64() != uint64(sel.Bit(row)) {
				t.Fatalf("row %d: the stalled dispatch sent a bit of %v, the first session's is %d: its relay buffer was reused while it read it", row, bit, sel.Bit(row))
			}
		}
	}

	// The dispatch returns once its backend hangs up, and gives the first
	// session's buffers back after the second's.
	deadline := time.Now().Add(5 * time.Second)
	for {
		agg.freeMu.Lock()
		free := len(agg.free)
		agg.freeMu.Unlock()
		if free == 2*n/chunk {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d relay buffers on the free list, want both sessions' %d", free, 2*n/chunk)
		}
		time.Sleep(time.Millisecond)
	}
}
