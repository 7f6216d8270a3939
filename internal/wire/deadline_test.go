package wire

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestIdleTimeoutFailsRecv(t *testing.T) {
	a, b := net.Pipe() // net.Pipe implements deadlines since Go 1.10
	defer a.Close()
	defer b.Close()

	conn := NewConn(a)
	conn.SetIdleTimeout(30 * time.Millisecond)

	start := time.Now()
	_, err := conn.Recv()
	if err == nil {
		t.Fatal("Recv succeeded with no peer data")
	}
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, want ~30ms", elapsed)
	}
}

// deadlineRecorder is a Deadliner that records the deadlines a Conn arms
// instead of enforcing them.
type deadlineRecorder struct {
	mu            sync.Mutex
	reads, writes []time.Time
}

func (r *deadlineRecorder) SetReadDeadline(t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = append(r.reads, t)
	return nil
}

func (r *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, t)
	return nil
}

// armed returns copies of the read and write deadlines recorded so far.
func (r *deadlineRecorder) armed() (reads, writes []time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.reads), slices.Clone(r.writes)
}

// TestIdleTimeoutRollsForwardPerRecv: every Recv arms a fresh read deadline,
// the idle timeout from the moment it was issued, so a session whose frames
// each arrive within the window survives however long it runs in total.
func TestIdleTimeoutRollsForwardPerRecv(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	const idle = 250 * time.Millisecond
	rec := &deadlineRecorder{}
	conn := NewConn(struct{ io.ReadWriter }{a})
	conn.SetDeadliner(rec)
	conn.SetIdleTimeout(idle)
	peer := NewConn(b)
	go func() {
		for range 3 {
			if err := peer.Send(MsgDone, nil); err != nil {
				return
			}
		}
	}()
	for i := range 3 {
		issued := time.Now()
		if _, err := conn.Recv(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		reads, _ := rec.armed()
		if len(reads) != i+1 {
			t.Fatalf("after %d frames: %d read deadlines armed, want one per Recv", i+1, len(reads))
		}
		if d := reads[i]; d.Before(issued.Add(idle)) || d.After(time.Now().Add(idle)) {
			t.Errorf("frame %d: read deadline %v is not the idle timeout from the Recv (issued %v)", i, d, issued)
		}
	}
}

func TestWriteTimeoutFailsSend(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close() // peer never reads: an unbuffered pipe write blocks

	conn := NewConn(a)
	conn.SetWriteTimeout(30 * time.Millisecond)
	err := conn.Send(MsgSum, []byte("x"))
	if err == nil {
		t.Fatal("Send succeeded with no reader")
	}
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestSetDeadlinerOverridesForWrappedTransport(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	// Wrap the transport so NewConn cannot auto-detect deadlines, as with
	// a netsim.Throttle; then install the raw conn's deadline control.
	conn := NewConn(struct{ io.ReadWriter }{a})
	conn.SetIdleTimeout(30 * time.Millisecond)
	conn.SetDeadliner(a)

	_, err := conn.Recv()
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout through installed deadliner", err)
	}
}

// recordingPipe is a pipe end whose deadline control records instead of
// enforcing: a transport NewConn would take as a Deadliner if it could see
// it.
type recordingPipe struct {
	net.Conn
	*deadlineRecorder
}

func (p recordingPipe) SetReadDeadline(t time.Time) error {
	return p.deadlineRecorder.SetReadDeadline(t)
}

func (p recordingPipe) SetWriteDeadline(t time.Time) error {
	return p.deadlineRecorder.SetWriteDeadline(t)
}

// TestIdleTimeoutWithoutDeadlinerIsNoop: a transport with deadline control,
// wrapped so NewConn cannot see it, gets no deadline from the armed timeouts
// until it is installed with SetDeadliner.
func TestIdleTimeoutWithoutDeadlinerIsNoop(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	rec := &deadlineRecorder{}
	conn := NewConn(struct{ io.ReadWriter }{recordingPipe{a, rec}})
	conn.SetIdleTimeout(20 * time.Millisecond)
	conn.SetWriteTimeout(20 * time.Millisecond)
	peer := NewConn(b)
	exchange := func() {
		t.Helper()
		go func() { _ = peer.Send(MsgDone, nil) }()
		if f, err := conn.Recv(); err != nil || f.Type != MsgDone {
			t.Fatalf("Recv = %+v, %v", f, err)
		}
		go func() { _, _ = peer.Recv() }()
		if err := conn.Send(MsgDone, nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	exchange()
	if reads, writes := rec.armed(); len(reads)+len(writes) != 0 {
		t.Fatalf("no deadliner installed, yet %d read and %d write deadlines were armed", len(reads), len(writes))
	}
	conn.SetDeadliner(recordingPipe{a, rec})
	exchange()
	if reads, writes := rec.armed(); len(reads) != 1 || len(writes) != 1 {
		t.Errorf("with a deadliner: %d read and %d write deadlines armed, want 1 and 1", len(reads), len(writes))
	}
}

func TestZeroTimeoutsAreInert(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	conn := NewConn(a)
	peer := NewConn(b)
	go func() { _ = peer.Send(MsgDone, nil) }()
	f, err := conn.Recv()
	if err != nil || f.Type != MsgDone {
		t.Fatalf("Recv = %+v, %v", f, err)
	}
}

func TestIsTimeout(t *testing.T) {
	if IsTimeout(errors.New("plain")) {
		t.Error("plain error misclassified as timeout")
	}
	if IsTimeout(nil) {
		t.Error("nil misclassified as timeout")
	}
}
