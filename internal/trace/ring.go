package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// DefaultRingSize is the Recorder capacity when NewRecorder is given a
// non-positive one. 256 recent traces at a handful of spans each is a few
// hundred KB — cheap enough to leave on in production, deep enough to
// catch "that query a minute ago was slow".
const DefaultRingSize = 256

// Recorder keeps the most recent finished traces in a fixed-size ring and
// serves them as JSON. Add is O(1) and lock-brief, so recording on the
// session hot path costs a snapshot copy and nothing else. The zero value
// is not usable; create with NewRecorder.
type Recorder struct {
	mu    sync.Mutex
	ring  []Snapshot
	next  int
	count uint64 // total traces ever added
}

// NewRecorder builds a ring holding the last capacity traces.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Recorder{ring: make([]Snapshot, 0, capacity)}
}

// Add snapshots t into the ring, evicting the oldest entry when full.
// Traces without an ID are ignored: no trace ID in the hello means no trace.
func (r *Recorder) Add(t *Trace) {
	if r == nil || !t.HasID() {
		return
	}
	s := t.Snapshot()
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
	} else {
		r.ring[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.ring)
	r.count++
	r.mu.Unlock()
}

// Len returns the number of traces currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Total returns the number of traces ever added (including evicted ones).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Recent returns up to n traces, newest first (n <= 0 means all held).
func (r *Recorder) Recent(n int) []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := len(r.ring)
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Snapshot, 0, n)
	// r.next is the slot the NEXT Add will use, so the newest entry sits
	// just behind it; walk backwards.
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + held) % held
		out = append(out, r.ring[idx])
	}
	return out
}

// Find returns every held trace with the given ID, newest first. Multiple
// hits happen when one component served the same traced query twice (e.g.
// a client-level retry).
func (r *Recorder) Find(id ID) []Snapshot {
	want := id.String()
	var out []Snapshot
	for _, s := range r.Recent(0) {
		if s.ID == want {
			out = append(out, s)
		}
	}
	return out
}

// tracesDoc is the /traces response envelope.
type tracesDoc struct {
	Total  uint64     `json:"total"`
	Held   int        `json:"held"`
	Traces []Snapshot `json:"traces"`
}

// Handler serves the recent-trace dump as JSON. Query parameters:
// ?id=<32 hex chars> filters to one trace ID, ?n=<count> limits how many
// of the newest traces are returned.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		doc := tracesDoc{Total: r.Total(), Held: r.Len()}
		if idStr := req.URL.Query().Get("id"); idStr != "" {
			id, err := ParseID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			doc.Traces = r.Find(id)
		} else {
			n := 0
			if nStr := req.URL.Query().Get("n"); nStr != "" {
				v, err := strconv.Atoi(nStr)
				if err != nil || v < 0 {
					http.Error(w, "trace: bad n", http.StatusBadRequest)
					return
				}
				n = v
			}
			doc.Traces = r.Recent(n)
		}
		if doc.Traces == nil {
			doc.Traces = []Snapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
