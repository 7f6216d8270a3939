package selectedsum

import (
	"math/big"
	"net"
	"testing"

	"privstats/internal/database"
	"privstats/internal/wire"
)

// servePair wires a client and server over net.Pipe and runs ServeSource in
// the background, returning the client conn and a channel with its error.
func servePair(t *testing.T, table *database.Table) (*wire.Conn, chan error) {
	t.Helper()
	a, b := net.Pipe()
	clientConn := wire.NewConn(a)
	serverConn := wire.NewConn(b)
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSource(serverConn, table, nil)
		serverConn.Close()
	}()
	t.Cleanup(func() { clientConn.Close() })
	return clientConn, errc
}

func TestServeQueryEndToEnd(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 120, 60)
	conn, errc := servePair(t, table)

	sum, err := Query(conn, sk, sel, 0, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestServeQueryChunked(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 95, 40)
	conn, errc := servePair(t, table)

	sum, err := Query(conn, sk, sel, 10, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestQueryOverTCPLoopback(t *testing.T) {
	// Full stack: real TCP, real listener — what cmd/sumserver does.
	sk := testKey(t)
	table, sel, want := fixture(t, 60, 30)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		errc <- ServeSource(wire.NewConn(c), table, nil)
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum, err := Query(wire.NewConn(c), sk, sel, 16, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestServeTimedRecordsPhases(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 80, 40)

	a, b := net.Pipe()
	clientConn := wire.NewConn(a)
	serverConn := wire.NewConn(b)
	var timings PhaseTimings
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSource(serverConn, table, &timings)
		serverConn.Close()
	}()
	t.Cleanup(func() { clientConn.Close() })

	sum, err := Query(clientConn, sk, sel, 20, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Fatalf("ServeSource: %v", err)
	}
	// All three phases did real work (key parse, 80 folds, rerandomize).
	if timings.Hello <= 0 || timings.Absorb <= 0 || timings.Finalize <= 0 {
		t.Errorf("timings = %+v, want all positive", timings)
	}
}

// A nil key must come back as an error from every client entry point, not as
// a nil dereference while the selection source is built.
func TestQueryRejectsNilKey(t *testing.T) {
	sel, _ := database.NewSelection(4)
	if _, err := Query(nil, nil, sel, 0, nil); err == nil {
		t.Error("Query accepted a nil key")
	}
	if _, err := QueryVector(nil, nil, SelectionSource(nil, sel, nil), 0, 0); err == nil {
		t.Error("QueryVector accepted a nil key")
	}
}

func TestQueryVectorValidation(t *testing.T) {
	sk := testKey(t)
	if _, err := QueryVector(nil, sk, nil, 0, 0); err == nil {
		t.Error("nil source should fail")
	}
	sel, _ := database.NewSelection(4)
	weight := func(int) *big.Int { return big.NewInt(1) }
	if _, err := QueryVector(nil, nil, PackedSelectionSource(sk, sel, weight, nil), 0, 0); err == nil {
		t.Error("nil key should fail")
	}
}

// TestServeSinkClassifiesFirstFrameType: a first frame whose type byte names
// no message was damaged in flight, so the server reports a corrupt frame,
// which the client may retry; a defined type other than the hello is the
// client's protocol error.
func TestServeSinkClassifiesFirstFrameType(t *testing.T) {
	table, _, _ := fixture(t, 8, 4)
	for _, c := range []struct {
		typ  wire.MsgType
		code wire.ErrorCode
	}{
		// A CRC client's hello, 0x81, with its type byte xor 0xA5.
		{0x24, wire.CodeCorruptFrame},
		{wire.MsgIndexChunk, wire.CodeProtocol},
	} {
		conn, errc := servePair(t, table)
		if err := conn.Send(c.typ, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.MsgError {
			t.Fatalf("type %#x: reply is frame %#x, want MsgError", byte(c.typ), byte(f.Type))
		}
		if got := wire.ErrorCodeOf(wire.DecodeError(f.Payload)); got != c.code {
			t.Errorf("type %#x: code %q, want %q", byte(c.typ), got, c.code)
		}
		conn.Close()
		if err := <-errc; err == nil {
			t.Errorf("type %#x: the server reported a clean session", byte(c.typ))
		}
	}
}
