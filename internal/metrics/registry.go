package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The registry: every family declares its series once, in Describe, and the
// one renderer below turns any ordered set of families into the Prometheus
// text exposition (format version 0.0.4). Metric names, types, HELP strings,
// label order and series order are a compatibility surface — dashboards and
// alerts key on them — so testdata/metrics.prom pins the exact rendering.
// To add a metric: one field on the family's struct, one declaration line in
// its Describe.

// PromContentType is the Content-Type of the 0.0.4 text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Family is a group of metrics that declares its series to a Desc, in
// exposition order.
type Family interface {
	Describe(d *Desc)
}

// Desc collects the series one scrape renders.
type Desc struct {
	// Now is the scrape time, for series derived from the clock.
	Now    time.Time
	series []*Series
}

// Series is one declared metric: name, HELP, type and label keys, plus the
// samples added for this scrape. A series with no samples still renders its
// HELP/TYPE header, so a dashboard sees the family before its first child.
type Series struct {
	name, help, typ string
	labelKeys       []string
	samples         []sample
}

type sample struct {
	labels []string
	value  any // int64, float64 or *Histogram
}

func (d *Desc) add(typ, name, help string, labelKeys []string) *Series {
	s := &Series{name: name, help: help, typ: typ, labelKeys: labelKeys}
	d.series = append(d.series, s)
	return s
}

// Counter declares a counter series.
func (d *Desc) Counter(name, help string, labelKeys ...string) *Series {
	return d.add("counter", name, help, labelKeys)
}

// Gauge declares a gauge series.
func (d *Desc) Gauge(name, help string, labelKeys ...string) *Series {
	return d.add("gauge", name, help, labelKeys)
}

// Histogram declares a histogram series; its samples are *Histogram values
// holding nanoseconds, rendered in seconds.
func (d *Desc) Histogram(name, help string, labelKeys ...string) *Series {
	return d.add("histogram", name, help, labelKeys)
}

// Sample adds one sample: an int64, float64 or *Histogram value with one
// label value per declared label key, in key order.
func (s *Series) Sample(value any, labels ...string) *Series {
	if len(labels) != len(s.labelKeys) {
		panic(fmt.Sprintf("metrics: %s: %d label values for keys %v", s.name, len(labels), s.labelKeys))
	}
	s.samples = append(s.samples, sample{labels, value})
	return s
}

// Registry is the ordered set of families one daemon exposes. It is the
// http.Handler for /metrics.
type Registry []Family

// gather runs every family's Describe and returns the declared series in
// exposition order.
func (r Registry) gather(now time.Time) []*Series {
	d := &Desc{Now: now}
	for _, f := range r {
		f.Describe(d)
	}
	return d.series
}

// WriteText renders the families in exposition format. Values are read from
// the same atomics as the JSON snapshots, so /metrics and /stats agree up to
// scrape timing.
func (r Registry) WriteText(w io.Writer, now time.Time) error {
	var b bytes.Buffer
	for _, s := range r.gather(now) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
		for _, sm := range s.samples {
			pairs := make([]string, len(sm.labels))
			for i, v := range sm.labels {
				pairs[i] = s.labelKeys[i] + `="` + promEscape.Replace(v) + `"`
			}
			labels := strings.Join(pairs, ",")
			switch v := sm.value.(type) {
			case *Histogram:
				writeHist(&b, s.name, labels, v)
			case float64:
				fmt.Fprintf(&b, "%s%s %s\n", s.name, braced(labels), promFloat(v))
			default:
				fmt.Fprintf(&b, "%s%s %d\n", s.name, braced(labels), v)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// ServeHTTP serves /metrics.
func (r Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	_ = r.WriteText(w, time.Now()) // a failed write means the scraper went away
}

// promEscape escapes a label value per the exposition format.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promFloat renders a float the way Prometheus clients do: shortest exact
// representation, no exponent padding.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// braced wraps a rendered label list (`k="v",...`) in braces; no labels, no
// braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHist renders one histogram sample. The native power-of-two nanosecond
// buckets become cumulative le bounds in seconds: bucket i (values < 2^i ns)
// maps to le = 2^i / 1e9. Only buckets up to the highest populated one are
// emitted, then +Inf — empty histograms render as a bare +Inf/count/sum.
func writeHist(b *bytes.Buffer, name, labels string, h *Histogram) {
	buckets, count, sum := h.Buckets()
	hi := -1
	for i, n := range buckets {
		if n > 0 {
			hi = i
		}
	}
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += buckets[i]
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", name, prefix, promFloat(math.Exp2(float64(i))/1e9), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced(labels), promFloat(float64(sum)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced(labels), count)
}

// StatsHandler serves doc() as an indented JSON document — every daemon's
// /stats. A document that fails to encode answers 500 with nothing else
// written.
func StatsHandler(doc func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b.Bytes()) // a failed write means the client went away
	})
}

// children is a set of labelled metric bundles (per backend, tenant or key),
// each allocated on first use. The zero value is ready to use.
type children[T any] struct {
	mu sync.Mutex
	m  map[string]*T
}

// get returns (allocating on first use) the bundle labelled name.
func (c *children[T]) get(name string) *T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*T)
	}
	t := c.m[name]
	if t == nil {
		t = new(T)
		c.m[name] = t
	}
	return t
}

// each calls f for every bundle in label order, outside the lock.
func (c *children[T]) each(f func(name string, t *T)) {
	c.mu.Lock()
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]*T, len(names))
	for i, n := range names {
		rows[i] = c.m[n]
	}
	c.mu.Unlock()
	for i, n := range names {
		f(n, rows[i])
	}
}

// rows maps every bundle, in label order, to its JSON snapshot row. The
// result is never nil, so an empty set encodes as [] rather than null.
func rows[T, R any](c *children[T], row func(name string, t *T) R) []R {
	out := []R{}
	c.each(func(name string, t *T) { out = append(out, row(name, t)) })
	return out
}
