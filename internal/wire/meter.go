package wire

import (
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
)

// Meter counts bytes and frames moving through a connection. The netsim
// package converts these counts into virtual communication time, and the
// bench harness reports them directly (the paper's communication-complexity
// axis).
type Meter struct {
	mu        sync.Mutex
	bytesOut  int64
	bytesIn   int64
	framesOut int64
	framesIn  int64
}

// AddOut records an outbound frame of n bytes.
func (m *Meter) AddOut(n int) {
	m.mu.Lock()
	m.bytesOut += int64(n)
	m.framesOut++
	m.mu.Unlock()
}

// AddIn records an inbound frame of n bytes.
func (m *Meter) AddIn(n int) {
	m.mu.Lock()
	m.bytesIn += int64(n)
	m.framesIn++
	m.mu.Unlock()
}

// Snapshot returns the current counters.
func (m *Meter) Snapshot() (bytesOut, bytesIn, framesOut, framesIn int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesOut, m.bytesIn, m.framesOut, m.framesIn
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.bytesOut, m.bytesIn, m.framesOut, m.framesIn = 0, 0, 0, 0
	m.mu.Unlock()
}

// Conn is a framed, metered, bidirectional channel. It is the only
// transport type the protocol layer touches; it can sit on top of a real
// net.Conn, an in-memory pipe, or a throttled netsim link.
type Conn struct {
	r io.Reader
	w io.Writer
	// c, when non-nil, is closed by Close.
	c io.Closer

	Meter *Meter

	// dls is the optional timeout policy (see deadline.go); its zero value
	// is inert.
	dls deadlines

	// crc, when set, appends CRC32 trailers to every sent frame (the
	// HelloFlagFrameCRC negotiation). Received frames are verified
	// statelessly whenever they carry a trailer.
	crc atomic.Bool

	// maxFrame, when positive, lowers the Recv payload ceiling below the
	// global MaxFrame (see ReadFrameLimit).
	maxFrame atomic.Int64

	// traceMu guards traceID, the session's end-to-end request identifier.
	traceMu sync.Mutex
	traceID [16]byte

	wmu sync.Mutex // serialize frame writes
	rmu sync.Mutex // serialize frame reads

	// rbuf, under rmu, is the payload buffer RecvReused reads into. It
	// belongs to this Conn alone, and a Conn frames one session: the
	// runtimes that keep a net.Conn across sessions wrap it in a fresh Conn
	// for each, so whatever rbuf holds is this session's.
	rbuf []byte
}

// NewConn wraps rw in a framed, metered connection. If rw also implements
// io.Closer, Close forwards to it; if it implements Deadliner (net.Conn
// does), the idle/write timeouts of deadline.go can be armed directly.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{r: rw, w: rw, Meter: &Meter{}}
	if cl, ok := rw.(io.Closer); ok {
		c.c = cl
	}
	if dl, ok := rw.(Deadliner); ok {
		c.dls.dl = dl
	}
	return c
}

// EnableCRC switches the connection's send side to CRC-trailed frames
// (after HelloFlagFrameCRC negotiation — or, on the client, before sending
// the flagged hello, which is then itself CRC-framed). The receive side
// always verifies trailers when present, so no receive-side switch exists.
func (c *Conn) EnableCRC() { c.crc.Store(true) }

// CRCEnabled reports whether sent frames carry CRC trailers.
func (c *Conn) CRCEnabled() bool { return c.crc.Load() }

// SetMaxFrame lowers the Recv payload ceiling to n bytes (0 restores the
// global MaxFrame). A client expecting only a sum ciphertext or a bounded
// error message uses it to reject absurd declared lengths before
// allocating.
func (c *Conn) SetMaxFrame(n int) { c.maxFrame.Store(int64(n)) }

// SetTraceID arms the session's end-to-end trace ID: the protocol client
// includes it in the Hello it sends on this connection (the trace trailer),
// so every component the query touches records its costs under one ID. The
// zero ID (the default) means no trace is requested and no trailer is sent,
// which keeps pre-trace servers interoperable.
func (c *Conn) SetTraceID(id [16]byte) {
	c.traceMu.Lock()
	c.traceID = id
	c.traceMu.Unlock()
}

// TraceID returns the armed trace ID (zero when tracing is off).
func (c *Conn) TraceID() [16]byte {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return c.traceID
}

// Send writes one frame.
func (c *Conn) Send(t MsgType, payload []byte) error {
	return c.send(t, nil, payload)
}

// SendChunk writes one MsgIndexChunk frame: the chunk's offset, then its
// ciphertexts straight from chunk.Ciphertexts, never joined into one payload.
// The bytes on the wire are those of Send(MsgIndexChunk, chunk.Encode()).
func (c *Conn) SendChunk(chunk *IndexChunk) error {
	var offset [8]byte
	binary.BigEndian.PutUint64(offset[:], chunk.Offset)
	return c.send(MsgIndexChunk, offset[:], chunk.Ciphertexts)
}

func (c *Conn) send(t MsgType, head, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.beforeSend()
	n, err := writeFrame(c.w, t, head, body, c.crc.Load())
	if err != nil {
		return err
	}
	c.Meter.AddOut(n)
	return nil
}

// Recv reads one frame into a fresh payload, which the caller may keep.
func (c *Conn) Recv() (Frame, error) {
	return c.recv(false)
}

// RecvReused reads one frame into a payload buffer the connection keeps for
// the next RecvReused, which overwrites it: the payload is valid until then.
// The buffer grows to the largest frame received and is never shared with
// another connection. A server's chunk loop uses it so that a session of
// equal-sized chunks allocates one payload, not one per chunk.
func (c *Conn) RecvReused() (Frame, error) {
	return c.recv(true)
}

func (c *Conn) recv(reuse bool) (Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.beforeRecv()
	var buf []byte
	if reuse {
		buf = c.rbuf
	}
	f, n, err := readFrameInto(c.r, int(c.maxFrame.Load()), buf)
	if err != nil {
		return Frame{}, err
	}
	if reuse && cap(f.Payload) > cap(c.rbuf) {
		c.rbuf = f.Payload
	}
	c.Meter.AddIn(n)
	return f, nil
}

// SendError sends a MsgError frame with the given message; it is best
// effort (the peer may already be gone) and returns the write error if any.
func (c *Conn) SendError(msg string) error {
	return c.Send(MsgError, EncodeError(msg))
}

// SendErrorCode sends a classified MsgError frame ("[code] msg").
func (c *Conn) SendErrorCode(code ErrorCode, msg string) error {
	return c.Send(MsgError, EncodeErrorCode(code, msg))
}

// Close closes the underlying transport when it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// FrameOverhead is the fixed per-frame header size in bytes.
const FrameOverhead = 5
