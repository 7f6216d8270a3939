package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// The aggregator's shard sessions run on the protocol's one client loop
// (selectedsum.Upload); these tests pin what the fan-out inherits from it.

// pipeDialer routes dials of fakeAddr to handler over an in-memory pipe and
// everything else to the network.
func pipeDialer(fakeAddr string, handler func(net.Conn)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		if addr != fakeAddr {
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		}
		near, far := net.Pipe()
		go handler(far)
		return near, nil
	}
}

// TestShardReplyFrameCapped: a backend (or a flipped length byte) declaring
// a 32 MiB partial sum must cost the aggregator a retryable attempt, not a
// 32 MiB allocation and a wait for bytes that never come.
func TestShardReplyFrameCapped(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const n = 8
	sel, err := database.GenerateSelection(n, 3, database.PatternRandom, 1)
	if err != nil {
		t.Fatal(err)
	}
	width := pk.CiphertextSize()
	body, err := selectedsum.EncryptRange(selectedsum.Online{PK: pk}, sel, 0, n, width)
	if err != nil {
		t.Fatal(err)
	}
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const declared = 32 << 20
	hung := make(chan struct{})
	defer close(hung)
	client := NewClient(ClientConfig{
		Retries:   -1,
		IOTimeout: 5 * time.Second,
		Dial: pipeDialer("giant", func(conn net.Conn) {
			defer conn.Close()
			c := wire.NewConn(conn)
			for {
				f, err := c.Recv()
				if err != nil {
					return
				}
				if f.Type == wire.MsgDone {
					break
				}
			}
			// A MsgSum header declaring 32 MiB, and not one byte of it.
			hdr := []byte{byte(wire.MsgSum), declared >> 24, declared >> 16 & 0xff, declared >> 8 & 0xff, declared & 0xff}
			if _, err := conn.Write(hdr); err != nil {
				return
			}
			<-hung
		}),
	})
	shard := Shard{Lo: 0, Hi: n, Backends: []string{"giant"}}
	sm, err := NewShardMap([]Shard{shard})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(sm, client)
	if err != nil {
		t.Fatal(err)
	}
	buf := newShardBuffer()
	buf.append(&wire.IndexChunk{Ciphertexts: body, Width: width})
	buf.close()
	hello := &wire.Hello{Scheme: pk.SchemeName(), PublicKey: keyBytes, VectorLen: n}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := &fanout{a: agg, hello: hello, pk: pk, shards: []Shard{shard}, bufs: []*shardBuffer{buf}}
	_, err = f.dispatchShard(context.Background(), 0, shard.Backends, false)
	runtime.ReadMemStats(&after)

	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("dispatch error = %v, want wire.ErrFrameTooLarge", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Errorf("an oversized declaration must be a retryable attempt failure (retries exhausted), got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > declared/2 {
		t.Errorf("dispatch allocated %d bytes: the declared payload was allocated before it was refused", grew)
	}
}

// TestBusyShardMidUploadFailsOver: a shard backend that turns the session
// away with [busy] and hangs up while the aggregator is mid-chunk must be
// seen as busy — not as the broken pipe its hang-up caused — and the shard
// must fail over to its replica.
func TestBusyShardMidUploadFailsOver(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 40, 17, 83)

	client := NewClient(ClientConfig{
		Retries:    2,
		Backoff:    time.Millisecond,
		ProbeAfter: time.Minute,
		Dial: pipeDialer("busy", func(conn net.Conn) {
			defer conn.Close()
			c := wire.NewConn(conn)
			for i := 0; i < 2; i++ { // the hello and the first chunk
				if _, err := c.Recv(); err != nil {
					return
				}
			}
			// One byte of the second chunk: the uploader is now inside its
			// write, past the last look at the reply channel.
			if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
				return
			}
			_ = c.SendErrorCode(wire.CodeBusy, "server busy: all session slots in use")
		}),
	})
	sm, err := NewShardMap([]Shard{{Lo: 0, Hi: table.Len(), Backends: []string{"busy", startBackend(t, table)}}})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startProxy(t, sm, client)

	got, err := NewClient(ClientConfig{Retries: -1}).Query(context.Background(), []string{addr}, sk, sel, 8, nil)
	if err != nil {
		t.Fatalf("query did not survive the busy shard: %v", err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	cs := client.Metrics().Snapshot()
	if bs := cs.Backends["busy"]; bs.Busy != 1 || bs.Errors != 1 {
		t.Errorf("busy backend counted busy=%d errors=%d, want 1 and 1: the rejection was not recognised as busy", bs.Busy, bs.Errors)
	}
	if cs.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", cs.Failovers)
	}
}

// TestFailoverAtDoneReplaysChunks: a shard's primary takes every chunk and
// then hangs up at MsgDone, so the replica is served entirely from the
// aggregator's replay, after the client's whole upload has passed through the
// session's one receive buffer. The sum is exact only because the fan-out
// copied each chunk out of that buffer: slices of it would all show the last
// chunk's bytes by now.
func TestFailoverAtDoneReplaysChunks(t *testing.T) {
	sk := testKey(t)
	const n, chunk, half = 40, 8, 20
	table, sel, want := fixture(t, n, 17, 97)
	shard0, err := table.Shard(0, half)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := table.Shard(half, n)
	if err != nil {
		t.Fatal(err)
	}

	rows := make(chan uint64, 1)
	client := NewClient(ClientConfig{
		Retries:    2,
		Backoff:    time.Millisecond,
		ProbeAfter: time.Minute,
		Dial: pipeDialer("quits-at-done", func(conn net.Conn) {
			defer conn.Close()
			c := wire.NewConn(conn)
			width := sk.PublicKey().CiphertextSize()
			got := uint64(0)
			for {
				f, err := c.Recv()
				if err != nil {
					return
				}
				switch f.Type {
				case wire.MsgIndexChunk:
					got += uint64((len(f.Payload) - 8) / width)
				case wire.MsgDone:
					rows <- got
					return // every chunk is in; hang up instead of replying
				}
			}
		}),
	})
	sm, err := NewShardMap([]Shard{
		{Lo: 0, Hi: half, Backends: []string{startBackend(t, shard0)}},
		{Lo: half, Hi: n, Backends: []string{"quits-at-done", startBackend(t, shard1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startProxy(t, sm, client)

	got, err := NewClient(ClientConfig{Retries: -1}).Query(context.Background(), []string{addr}, sk, sel, chunk, nil)
	if err != nil {
		t.Fatalf("query did not survive the primary quitting at done: %v", err)
	}
	if r := <-rows; r != n-half {
		t.Fatalf("the primary saw %d rows before quitting, want all %d of its shard", r, n-half)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v: the replay did not resend the client's chunks", got, want)
	}
	if fo := client.Metrics().Snapshot().Failovers; fo != 1 {
		t.Errorf("failovers = %d, want 1", fo)
	}
}
