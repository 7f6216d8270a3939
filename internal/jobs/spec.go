// Package jobs is the declarative stats-job gateway: a JSON JobSpec names a
// statistic (the paper's "means, variances, and weighted averages" made
// concrete), Validate checks it against the served table's schema, BuildPlan
// maps it onto one or more multi-column selected-sum queries, and RunPlan
// runs the plan's steps through a StepRunner: Executor.Run's cluster client
// under one trace ID, or InProcess's session over a pipe. A tenant layer —
// token-bucket submission quotas plus weighted fair-share admission to the
// execution slots — keeps one saturating analyst from starving the rest.
//
// Privacy contract: a JobSpec carries the analyst's op and selection in the
// clear because the gateway IS the analyst side — it holds the private key
// and encrypts the selection before anything leaves the process. Job
// statuses carry only plaintext aggregates the analyst is entitled to;
// neither specs nor statuses ever carry ciphertext.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"privstats/internal/database"
)

// MaxSpecBytes bounds an encoded JobSpec. A million-row explicit row list is
// ~8 MB of JSON; 16 MB leaves headroom while rejecting absurd submissions
// before they are parsed.
const MaxSpecBytes = 16 << 20

// Job operations.
const (
	OpSum        = "sum"
	OpMean       = "mean"
	OpVariance   = "variance"
	OpCovariance = "covariance"
	OpGroupBy    = "groupby"
)

// BadJobError is a structured validation rejection: Field names the spec
// path that failed, Reason says why. It renders with the "[bad-job]" code so
// clients can classify without parsing prose.
type BadJobError struct {
	Field  string
	Reason string
}

func (e *BadJobError) Error() string {
	return fmt.Sprintf("[bad-job] %s: %s", e.Field, e.Reason)
}

func badJob(field, format string, args ...any) error {
	return &BadJobError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Schema describes the table a gateway serves, for validation: the row
// count and the column names selectable in a spec. The single-column tables
// of this repo publish Columns = ["value"].
type Schema struct {
	Rows    int
	Columns []string
	// PlaintextBits is the bit length of the analyst key's plaintext space,
	// which sets how many group-by sums share one reply. NewGateway derives
	// it from the executor's key; zero means unknown and plans one group per
	// query.
	PlaintextBits int
}

// HasColumn reports whether name is a served column.
func (s Schema) HasColumn(name string) bool {
	for _, c := range s.Columns {
		if c == name {
			return true
		}
	}
	return false
}

// JobSpec is one declarative statistics job.
type JobSpec struct {
	// Op is one of sum, mean, variance, covariance, groupby.
	Op string `json:"op"`
	// Columns names the value columns the op reads. Empty defaults to the
	// schema's first column; covariance takes two names (a pair naming the
	// same column computes the self-covariance, i.e. the variance).
	Columns []string `json:"columns,omitempty"`
	// Selection picks the rows the statistic ranges over.
	Selection SelectionSpec `json:"selection"`
	// Params carries op-specific parameters (group-by labels).
	Params *GroupByParams `json:"params,omitempty"`
}

// SelectionSpec picks rows: exactly one of All, Rows, or Ranges must be set.
type SelectionSpec struct {
	// All selects every row.
	All bool `json:"all,omitempty"`
	// Rows lists selected row indices.
	Rows []int `json:"rows,omitempty"`
	// Ranges lists half-open [lo, hi) index ranges.
	Ranges [][2]int `json:"ranges,omitempty"`
}

// GroupByParams parameterizes the groupby op. The labels are public schema
// (the server-side strata); only the selection is secret.
type GroupByParams struct {
	// Labels assigns row i to group Labels[i] in [0, Groups).
	Labels []int `json:"labels"`
	// Groups is the number of groups.
	Groups int `json:"groups"`
}

// MaxGroups bounds a groupby fan-out: a key too narrow to pack groups costs
// one cluster query per group, so the cap keeps one spec from launching an
// unbounded query storm.
const MaxGroups = 256

// DecodeJobSpec parses a JSON JobSpec, rejecting unknown fields, trailing
// data, and oversized payloads. Every failure is a *BadJobError.
func DecodeJobSpec(data []byte) (*JobSpec, error) {
	if len(data) > MaxSpecBytes {
		return nil, badJob("spec", "encoded spec is %d bytes (limit %d)", len(data), MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, badJob("spec", "bad JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, badJob("spec", "trailing data after spec")
	}
	return &spec, nil
}

// Validate checks the spec against the schema. It returns nil or a
// *BadJobError naming the offending field.
func (s *JobSpec) Validate(schema Schema) error {
	if schema.Rows <= 0 || len(schema.Columns) == 0 {
		return badJob("schema", "gateway serves no table")
	}
	switch s.Op {
	case OpSum, OpMean, OpVariance, OpCovariance, OpGroupBy:
	case "":
		return badJob("op", "missing")
	default:
		return badJob("op", "unknown op %q", s.Op)
	}

	for i, c := range s.Columns {
		if !schema.HasColumn(c) {
			return badJob(fmt.Sprintf("columns[%d]", i), "unknown column %q", c)
		}
	}
	if s.Op == OpCovariance {
		if len(s.Columns) != 0 && len(s.Columns) != 2 {
			return badJob("columns", "covariance takes two columns, got %d", len(s.Columns))
		}
	} else if len(s.Columns) > 1 {
		return badJob("columns", "%s takes one column, got %d", s.Op, len(s.Columns))
	}

	if err := s.Selection.validate(schema.Rows); err != nil {
		return err
	}
	m := s.Selection.count(schema.Rows)
	if m == 0 && s.Op != OpSum && s.Op != OpGroupBy {
		// Sum over nothing is 0 and a group-by reports empty groups; the
		// ratio statistics are undefined on zero rows.
		return badJob("selection", "%s is undefined on an empty selection", s.Op)
	}

	if s.Op == OpGroupBy {
		p := s.Params
		if p == nil {
			return badJob("params", "groupby requires labels and groups")
		}
		if p.Groups <= 0 {
			return badJob("params.groups", "must be positive, got %d", p.Groups)
		}
		if p.Groups > MaxGroups {
			return badJob("params.groups", "%d exceeds the %d-group cap", p.Groups, MaxGroups)
		}
		if len(p.Labels) != schema.Rows {
			return badJob("params.labels", "%d labels for a %d-row table", len(p.Labels), schema.Rows)
		}
		for i, l := range p.Labels {
			if l < 0 || l >= p.Groups {
				return badJob("params.labels", "labels[%d] = %d outside [0, %d)", i, l, p.Groups)
			}
		}
	} else if s.Params != nil {
		return badJob("params", "%s takes no params", s.Op)
	}
	return nil
}

// validate checks the selection's shape and bounds.
func (sel *SelectionSpec) validate(rows int) error {
	forms := 0
	if sel.All {
		forms++
	}
	if len(sel.Rows) > 0 {
		forms++
	}
	if len(sel.Ranges) > 0 {
		forms++
	}
	if forms != 1 {
		return badJob("selection", "exactly one of all, rows, ranges must be set")
	}
	for i, r := range sel.Rows {
		if r < 0 || r >= rows {
			return badJob(fmt.Sprintf("selection.rows[%d]", i), "row %d outside [0, %d)", r, rows)
		}
	}
	for i, rg := range sel.Ranges {
		if rg[0] < 0 || rg[1] < rg[0] || rg[1] > rows {
			return badJob(fmt.Sprintf("selection.ranges[%d]", i), "bad range [%d, %d) over %d rows", rg[0], rg[1], rows)
		}
	}
	return nil
}

// Build materializes the selection over an n-row table. Duplicate rows and
// overlapping ranges are idempotent (a selection bit is set once).
func (sel *SelectionSpec) Build(n int) (*database.Selection, error) {
	if err := sel.validate(n); err != nil {
		return nil, err
	}
	out, err := database.NewSelection(n)
	if err != nil {
		return nil, err
	}
	switch {
	case sel.All:
		for i := 0; i < n; i++ {
			out.Set(i)
		}
	case len(sel.Rows) > 0:
		for _, r := range sel.Rows {
			out.Set(r)
		}
	default:
		for _, rg := range sel.Ranges {
			for i := rg[0]; i < rg[1]; i++ {
				out.Set(i)
			}
		}
	}
	return out, nil
}

// count returns the number of selected rows without allocating the bit
// vector (validation-time emptiness check).
func (sel *SelectionSpec) count(n int) int {
	switch {
	case sel.All:
		return n
	case len(sel.Rows) > 0:
		seen := make(map[int]struct{}, len(sel.Rows))
		for _, r := range sel.Rows {
			seen[r] = struct{}{}
		}
		return len(seen)
	default:
		// Ranges may overlap; mark them. Selections are table-sized, so the
		// scratch vector is bounded by the schema, not the spec.
		marked := make([]bool, n)
		c := 0
		for _, rg := range sel.Ranges {
			for i := rg[0]; i < rg[1] && i < n; i++ {
				if i >= 0 && !marked[i] {
					marked[i] = true
					c++
				}
			}
		}
		return c
	}
}
