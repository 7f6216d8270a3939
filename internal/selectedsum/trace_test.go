package selectedsum

import (
	"net"
	"testing"

	"privstats/internal/trace"
	"privstats/internal/wire"
)

// Trace propagation through the protocol layer: a traced client hello puts
// the ID and phase spans into the server's PhaseTimings.Trace; an untraced
// hello leaves the trace ID-less (and therefore droppable by the recorder) —
// in neither direction is there a protocol error.

func serveTimedPair(t *testing.T) (*wire.Conn, *PhaseTimings, chan error) {
	t.Helper()
	table, _, _ := fixture(t, 40, 15)
	a, b := net.Pipe()
	clientConn := wire.NewConn(a)
	serverConn := wire.NewConn(b)
	timings := &PhaseTimings{Trace: trace.New("pipe")}
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSource(serverConn, table, timings)
		serverConn.Close()
	}()
	t.Cleanup(func() { clientConn.Close() })
	return clientConn, timings, errc
}

func TestServeRecordsTraceFromHello(t *testing.T) {
	sk := testKey(t)
	_, sel, want := fixture(t, 40, 15)
	conn, timings, errc := serveTimedPair(t)

	id := trace.NewID()
	conn.SetTraceID(id)
	sum, err := Query(conn, sk, sel, 8, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	timings.Trace.Finish(nil)

	snap := timings.Trace.Snapshot()
	if snap.ID != id.String() {
		t.Errorf("server trace ID = %s, want %s", snap.ID, id)
	}
	if snap.Role != "server" {
		t.Errorf("role = %q, want server", snap.Role)
	}
	byName := map[string]trace.Span{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	for _, phase := range []string{"hello", "absorb", "finalize"} {
		if _, ok := byName[phase]; !ok {
			t.Errorf("phase span %q missing (have %v)", phase, snap.Spans)
		}
	}
	if got := byName["absorb"].Attrs["chunks"]; got != "5" {
		t.Errorf("absorb chunks attr = %q, want 5 (40 rows / chunk 8)", got)
	}
	// The recorded phase durations must agree with the PhaseTimings the
	// metrics pipeline sees — same measurement, two sinks.
	if byName["absorb"].DurNanos != int64(timings.Absorb) {
		t.Errorf("absorb span %dns != timing %dns", byName["absorb"].DurNanos, int64(timings.Absorb))
	}
}

func TestServeWithoutTraceTrailerStaysIDless(t *testing.T) {
	sk := testKey(t)
	_, sel, want := fixture(t, 40, 15)
	conn, timings, errc := serveTimedPair(t)

	// No SetTraceID: the hello goes out in a legacy form.
	sum, err := Query(conn, sk, sel, 0, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if timings.Trace.HasID() {
		t.Errorf("untraced session sprouted trace ID %s", timings.Trace.ID())
	}
	// The recorder contract: an ID-less trace is dropped, so "no trace ID
	// in the hello" means "no trace retained".
	rec := trace.NewRecorder(4)
	timings.Trace.Finish(nil)
	rec.Add(timings.Trace)
	if rec.Len() != 0 {
		t.Errorf("recorder held %d traces from an untraced session", rec.Len())
	}
	// The phases were still timed: tracing changes retention, not metrics.
	if timings.Finalize <= 0 {
		t.Error("finalize timing missing on untraced session")
	}
}

// TestNilTraceCostsNothing: ServeTimed with no Trace allocated (the
// recorder-off path every pre-existing caller uses) behaves identically.
func TestNilTraceCostsNothing(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 30, 10)
	a, b := net.Pipe()
	clientConn := wire.NewConn(a)
	serverConn := wire.NewConn(b)
	timings := &PhaseTimings{} // Trace nil
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSource(serverConn, table, timings)
		serverConn.Close()
	}()
	defer clientConn.Close()

	clientConn.SetTraceID(trace.NewID()) // client traces, server doesn't record
	sum, err := Query(clientConn, sk, sel, 0, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if timings.Absorb <= 0 || timings.Finalize <= 0 {
		t.Error("phase timings missing with nil trace")
	}
}
