package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"privstats/internal/database"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// The protocol has one server loop (selectedsum.ServeSink), so a misbehaving
// client must hear the same thing from a backend and from the aggregator in
// front of it. TestSessionConformance plays each bad-client script against
// both and holds them to the same wire.ErrorCode and the same verdict from
// the cluster client's retry classifier.

// conformanceTarget is one server under test: it answers a single session on
// the far end of a pipe and reports how the session ended.
type conformanceTarget struct {
	name  string
	serve func(conn *wire.Conn) error
}

// badClient drives one misbehaving session and returns the error the client
// ends up with. raw is the transport under c, for scripts that damage bytes.
type badClient func(t *testing.T, c *wire.Conn, raw net.Conn) error

// peerError reads the server's verdict, which must be a MsgError frame.
func peerError(t *testing.T, c *wire.Conn) error {
	t.Helper()
	f, err := c.Recv()
	if err != nil {
		t.Fatalf("reading the server's verdict: %v", err)
	}
	if f.Type != wire.MsgError {
		t.Fatalf("expected MsgError, got %#x", byte(f.Type))
	}
	return wire.DecodeError(f.Payload)
}

func TestSessionConformance(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	const n = 24
	table, _, _ := fixture(t, n, 10, 9)
	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	width := pk.CiphertextSize()
	sel, err := database.GenerateSelection(n, 9, database.PatternRandom, 5)
	if err != nil {
		t.Fatal(err)
	}
	vector, err := selectedsum.EncryptRange(selectedsum.Online{PK: pk}, sel, 0, n, width)
	if err != nil {
		t.Fatal(err)
	}

	goodHello := func() wire.Hello {
		return wire.Hello{Version: wire.Version, Scheme: pk.SchemeName(), PublicKey: keyBytes, VectorLen: n}
	}
	send := func(t *testing.T, c *wire.Conn, typ wire.MsgType, payload []byte) {
		t.Helper()
		if err := c.Send(typ, payload); err != nil {
			t.Fatalf("sending %#x: %v", byte(typ), err)
		}
	}
	// helloThen opens a well-formed session (after edit has had its way with
	// the hello) and hands over to the rest of the script.
	helloThen := func(edit func(*wire.Hello), rest func(t *testing.T, c *wire.Conn, raw net.Conn)) badClient {
		return func(t *testing.T, c *wire.Conn, raw net.Conn) error {
			h := goodHello()
			if edit != nil {
				edit(&h)
			}
			if h.Flags&wire.HelloFlagFrameCRC != 0 {
				c.EnableCRC()
			}
			send(t, c, wire.MsgHello, h.Encode())
			if rest != nil {
				rest(t, c, raw)
			}
			return peerError(t, c)
		}
	}
	chunk := func(offset, lo, hi int) []byte {
		return (&wire.IndexChunk{Offset: uint64(offset), Ciphertexts: vector[lo*width : hi*width], Width: width}).Encode()
	}
	withCRC := func(h *wire.Hello) { h.Flags |= wire.HelloFlagFrameCRC }

	rows := []struct {
		name      string
		script    badClient
		code      wire.ErrorCode
		retryable bool
		mentions  string
	}{
		{
			name: "non-hello open",
			script: func(t *testing.T, c *wire.Conn, _ net.Conn) error {
				send(t, c, wire.MsgDone, nil)
				return peerError(t, c)
			},
			code: wire.CodeProtocol, mentions: "expected hello",
		},
		{
			name: "malformed hello",
			script: func(t *testing.T, c *wire.Conn, _ net.Conn) error {
				send(t, c, wire.MsgHello, []byte{0, 0, 0})
				return peerError(t, c)
			},
			code: wire.CodeProtocol,
		},
		{
			// Encode writes the current version, so the script patches it.
			name: "bad version",
			script: func(t *testing.T, c *wire.Conn, _ net.Conn) error {
				h := goodHello()
				b := h.Encode()
				binary.BigEndian.PutUint32(b, 99)
				send(t, c, wire.MsgHello, b)
				return peerError(t, c)
			},
			code: wire.CodeProtocol, mentions: "version 99",
		},
		{
			name:   "unknown scheme",
			script: helloThen(func(h *wire.Hello) { h.Scheme = "rot13" }, nil),
			code:   wire.CodeProtocol, mentions: "unknown scheme",
		},
		{
			name:   "unknown column bits",
			script: helloThen(func(h *wire.Hello) { h.Columns = 1 << 9 }, nil),
			code:   wire.CodeProtocol, mentions: "unknown column",
		},
		{
			name:   "wrong vector length",
			script: helloThen(func(h *wire.Hello) { h.VectorLen = n - 1 }, nil),
			code:   wire.CodeProtocol, mentions: "length mismatch",
		},
		{
			// The stock client with a selection of the wrong size: it must
			// come back with the server's explanation, not a hang-up.
			name: "wrong vector length, Query client",
			script: func(t *testing.T, c *wire.Conn, _ net.Conn) error {
				short, err := database.NewSelection(n - 1)
				if err != nil {
					t.Fatal(err)
				}
				_, err = selectedsum.Query(c, sk, short, 0, nil)
				return err
			},
			code: wire.CodeProtocol, mentions: "peer error",
		},
		{
			name: "out-of-order chunk",
			script: helloThen(nil, func(t *testing.T, c *wire.Conn, _ net.Conn) {
				send(t, c, wire.MsgIndexChunk, chunk(5, 5, 10))
			}),
			code: wire.CodeProtocol, mentions: "out of order",
		},
		{
			name: "chunk past the announced rows",
			script: helloThen(nil, func(t *testing.T, c *wire.Conn, _ net.Conn) {
				send(t, c, wire.MsgIndexChunk, chunk(0, 0, n-1))
				send(t, c, wire.MsgIndexChunk, chunk(n-1, 0, 2))
			}),
			code: wire.CodeProtocol, mentions: "length mismatch",
		},
		{
			name: "done before the vector is complete",
			script: helloThen(nil, func(t *testing.T, c *wire.Conn, _ net.Conn) {
				send(t, c, wire.MsgIndexChunk, chunk(0, 0, n/2))
				send(t, c, wire.MsgDone, nil)
			}),
			code: wire.CodeProtocol, mentions: "incomplete",
		},
		{
			name: "chunk body not a whole number of ciphertexts",
			script: helloThen(nil, func(t *testing.T, c *wire.Conn, _ net.Conn) {
				send(t, c, wire.MsgIndexChunk, chunk(0, 0, 4)[:8+width+1])
			}),
			code: wire.CodeProtocol,
		},
		{
			name: "server-only frame mid-session",
			script: helloThen(nil, func(t *testing.T, c *wire.Conn, _ net.Conn) {
				send(t, c, wire.MsgSum, vector[:width])
			}),
			code: wire.CodeProtocol, mentions: "unexpected message",
		},
		{
			// Zero is not a unit mod N²: the fold rejects it. Behind the
			// aggregator the shard's coded rejection is relayed as it came.
			name: "malformed ciphertext",
			script: helloThen(nil, func(t *testing.T, c *wire.Conn, _ net.Conn) {
				zeros := &wire.IndexChunk{Ciphertexts: make([]byte, n*width), Width: width}
				send(t, c, wire.MsgIndexChunk, zeros.Encode())
				send(t, c, wire.MsgDone, nil)
			}),
			code: wire.CodeProtocol,
		},
		{
			name: "frame damaged in flight",
			script: helloThen(withCRC, func(t *testing.T, _ *wire.Conn, raw net.Conn) {
				var frame bytes.Buffer
				if _, err := wire.WriteFrameCRC(&frame, wire.MsgIndexChunk, chunk(0, 0, n)); err != nil {
					t.Fatal(err)
				}
				frame.Bytes()[frame.Len()/2] ^= 0x40
				if _, err := raw.Write(frame.Bytes()); err != nil {
					t.Fatal(err)
				}
			}),
			code: wire.CodeCorruptFrame, retryable: true,
		},
		{
			// The CRC flag bit of the type byte lost in flight.
			name: "plain frame in a CRC session",
			script: helloThen(withCRC, func(t *testing.T, _ *wire.Conn, raw net.Conn) {
				if _, err := wire.WriteFrame(raw, wire.MsgIndexChunk, chunk(0, 0, n)); err != nil {
					t.Fatal(err)
				}
			}),
			code: wire.CodeCorruptFrame, retryable: true, mentions: "plain frame",
		},
	}

	half := n / 2
	shard0, err := table.Shard(0, half)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := table.Shard(half, n)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewShardMap([]Shard{
		{Lo: 0, Hi: half, Backends: []string{startBackend(t, shard0)}},
		{Lo: half, Hi: n, Backends: []string{startBackend(t, shard1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(sm, NewClient(ClientConfig{Retries: -1}))
	if err != nil {
		t.Fatal(err)
	}
	targets := []conformanceTarget{
		{"direct", func(conn *wire.Conn) error { return selectedsum.ServeSource(conn, table, nil) }},
		{"aggregator", func(conn *wire.Conn) error { return agg.ServeSession(conn, nil) }},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, target := range targets {
				a, b := net.Pipe()
				served := make(chan error, 1)
				go func() {
					served <- target.serve(wire.NewConn(b))
					b.Close()
				}()
				got := row.script(t, wire.NewConn(a), a)
				a.Close()

				if got == nil {
					t.Fatalf("%s: the client got no error", target.name)
				}
				if code := wire.ErrorCodeOf(got); code != row.code {
					t.Errorf("%s: code = %q, want %q (%v)", target.name, code, row.code, got)
				}
				if retryable(got) != row.retryable {
					t.Errorf("%s: retryable = %v, want %v (%v)", target.name, !row.retryable, row.retryable, got)
				}
				if !strings.Contains(got.Error(), row.mentions) {
					t.Errorf("%s: error %q does not mention %q", target.name, got, row.mentions)
				}
				if err := <-served; err == nil {
					t.Errorf("%s: the server reported a clean session", target.name)
				}
			}
		})
	}
}
