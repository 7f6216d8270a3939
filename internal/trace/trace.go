// Package trace is the per-request observability layer: where
// internal/metrics answers "how is the fleet doing in aggregate", this
// package answers "why was THIS query slow". A client that opts in mints a
// 16-byte trace ID and sends it in its Hello; every component the query
// touches — the cluster aggregator, each backend shard — records a Trace
// under that same ID with named spans (phase start + duration) and
// annotations (shard index, backend address, retry and hedge counts), and
// keeps it in a bounded in-memory ring served as JSON from /traces. One ID
// then stitches the whole fan-out back together: the aggregator's trace
// shows per-shard upload/fold/reply timings for the exact request, and each
// shard's trace breaks its own cost into the paper's hello/absorb/finalize
// phases.
//
// Privacy contract (DESIGN.md §12): traces carry timings, counts, byte
// totals, and addresses — never index-vector ciphertexts, partial sums, or
// anything derived from them. The trace of a query reveals nothing about
// WHAT was selected, only how long the machinery took, which the serving
// side observes anyway.
//
// All Trace methods are safe on a nil receiver, so the protocol layers can
// record unconditionally and pay nothing when tracing is off.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ID is a 16-byte request identifier, rendered as 32 hex characters. The
// zero ID means "no trace requested".
type ID [16]byte

// NewID mints a random trace ID.
func NewID() ID {
	var id ID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand failing is unrecoverable for key material, but a
		// trace ID only needs uniqueness; fall back to the clock.
		now := time.Now().UnixNano()
		for i := 0; i < 8; i++ {
			id[i] = byte(now >> (8 * i))
		}
	}
	return id
}

// ParseID parses the 32-hex-character form.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return ID{}, fmt.Errorf("trace: bad id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the hex form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// maxSpans bounds one trace's span list so a pathological session (or a
// bug) cannot grow a trace without limit; overflow is counted, not stored.
const maxSpans = 256

// maxAttrValue bounds one annotation value. Ciphertexts at the smallest
// supported key size are well past this, so the cap doubles as a backstop
// for the privacy contract: nothing ciphertext-sized fits in a trace.
const maxAttrValue = 128

// Span is one completed, named phase of a trace.
type Span struct {
	// Name identifies the phase ("hello", "absorb", "shard0", ...).
	Name string `json:"name"`
	// StartNanos is the span's start as an offset from the trace's begin.
	StartNanos int64 `json:"start_ns"`
	// DurNanos is the span's duration.
	DurNanos int64 `json:"dur_ns"`
	// Attrs are optional span-scoped annotations (backend address, attempt
	// counts, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is one component's record of one request. Create with New, fill
// via SetID/SetRole/Annotate/Observe, seal with Finish, and hand to a
// Recorder. All methods are safe for concurrent use and on a nil receiver
// (they become no-ops), so recording call sites need no tracing-enabled
// guards.
type Trace struct {
	mu      sync.Mutex
	id      ID
	role    string
	peer    string
	begin   time.Time
	end     time.Time
	err     string
	spans   []Span
	dropped int
	attrs   map[string]string
}

// New starts a trace observed from the given peer (the remote address of
// the connection that carried the request). The ID arrives later, parsed
// from the Hello, via SetID.
func New(peer string) *Trace {
	return &Trace{peer: peer, begin: time.Now()}
}

// SetID installs the request's trace ID (from the Hello).
func (t *Trace) SetID(id ID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the installed trace ID (zero until SetID).
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// HasID reports whether the request opted into tracing. A Recorder only
// keeps traces with an ID: no trace ID in the Hello means no trace.
func (t *Trace) HasID() bool { return !t.ID().IsZero() }

// SetRole names the component recording this trace ("server",
// "aggregator").
func (t *Trace) SetRole(role string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.role = role
	t.mu.Unlock()
}

// Annotate attaches a trace-scoped key/value annotation. Values are
// truncated to a short bound — annotations are for counts, addresses, and
// verdicts, never payload material.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	if len(value) > maxAttrValue {
		value = value[:maxAttrValue]
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// Observe appends a completed span. attrs may be nil; values are truncated
// like Annotate's. Spans past the per-trace cap are dropped and counted.
func (t *Trace) Observe(name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	s := Span{Name: name, StartNanos: start.Sub(t.begin).Nanoseconds(), DurNanos: d.Nanoseconds()}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			if len(v) > maxAttrValue {
				v = v[:maxAttrValue]
			}
			s.Attrs[k] = v
		}
	}
	t.spans = append(t.spans, s)
}

// Finish seals the trace with the session's outcome. A nil err marks
// success; a non-nil one is recorded as prose (protocol errors are already
// sanitized and bounded at the wire layer).
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.end = time.Now()
	if err != nil {
		msg := err.Error()
		if len(msg) > maxAttrValue {
			msg = msg[:maxAttrValue]
		}
		t.err = msg
	}
	t.mu.Unlock()
}

// Snapshot is the JSON-ready, immutable form of a Trace.
type Snapshot struct {
	ID      string            `json:"id"`
	Role    string            `json:"role"`
	Peer    string            `json:"peer,omitempty"`
	Begin   time.Time         `json:"begin"`
	DurSpan int64             `json:"dur_ns"`
	Err     string            `json:"err,omitempty"`
	Spans   []Span            `json:"spans"`
	Dropped int               `json:"spans_dropped,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Snapshot copies the trace's current state. Spans are ordered by start
// offset so concurrent fan-out spans read chronologically.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		ID:      t.id.String(),
		Role:    t.role,
		Peer:    t.peer,
		Begin:   t.begin,
		Err:     t.err,
		Dropped: t.dropped,
		Spans:   make([]Span, len(t.spans)),
	}
	end := t.end
	if end.IsZero() {
		end = time.Now()
	}
	s.DurSpan = end.Sub(t.begin).Nanoseconds()
	copy(s.Spans, t.spans)
	sort.SliceStable(s.Spans, func(i, j int) bool { return s.Spans[i].StartNanos < s.Spans[j].StartNanos })
	if len(t.attrs) > 0 {
		s.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			s.Attrs[k] = v
		}
	}
	return s
}
