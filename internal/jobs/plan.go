package jobs

import (
	"fmt"
	"math/big"
	"math/bits"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/wire"
)

// Step is one cluster query of a plan: fold the (secret) selection against
// the requested column set in a single uplink.
type Step struct {
	// Label names the step in traces ("sum", "moments", "groups0-3").
	Label string
	// Sel is the selection this step's uplink encrypts.
	Sel *database.Selection
	// Columns is the server-side fold set for the step.
	Columns wire.ColumnSet
	// Group is the first group a group-by step carries, -1 otherwise.
	Group int
	// Slots is how many consecutive groups, from Group on, a group-by step
	// packs into its one reply; 0 otherwise.
	Slots int
	// Weight, set on group-by steps, is what selected row i uploads in place
	// of the bit 1: 2^(slot width · (row i's group − Group)). The values are
	// shared between rows and the client's encryption workers call it at
	// once, so callers must not modify the returned value.
	Weight func(row int) *big.Int
}

// valueBits is the width of a table value (database.Table holds uint32s).
const valueBits = 32

// slotWidth is the bits the sum of up to rows values needs: rows is below
// 2^bitlen(rows) and every value below 2^32, so a slot this wide never
// carries into its neighbour.
func slotWidth(rows int) int { return valueBits + bits.Len(uint(rows)) }

// slotCapacity is how many slots of width bits one plaintext holds. Anything
// below 2^(plaintextBits−1) is below the modulus, hence the −1. A plaintext
// of unknown width, or narrower than a slot, plans one group per step;
// checkPlaintextBounds is what rejects the second.
func slotCapacity(plaintextBits, width int) int {
	return max(1, (plaintextBits-1)/width)
}

// checkPlaintextBounds rejects a plan one of whose replies could exceed pk's
// plaintext space and wrap mod N into a silently wrong statistic: Σx over a
// step's rows fills one slot per group it carries (one for the ungrouped
// ops), Σx² stays below rows·2⁶⁴.
func checkPlaintextBounds(plan *Plan, pk homomorphic.PublicKey) error {
	space := pk.PlaintextSpace()
	for _, st := range plan.Steps {
		rows, slots := st.Sel.Len(), max(st.Slots, 1)
		if width := slotWidth(rows); slots*width > space.BitLen()-1 {
			return badJob("key", "%d-bit plaintext space cannot hold %d sums of %d bits over %d rows",
				space.BitLen(), slots, width, rows)
		}
		if st.Columns.Has(wire.ColSquare) && new(big.Int).Lsh(big.NewInt(int64(rows)), 64).Cmp(space) >= 0 {
			return badJob("key", "%d-bit plaintext space cannot hold Σx² over %d rows", space.BitLen(), rows)
		}
	}
	return nil
}

// Plan maps a validated JobSpec onto selected-sum queries plus a local
// finishing computation. Every op costs the fewest uplinks its statistic
// allows: sum/mean/variance/covariance are ONE query each (variance rides
// the paper's one-round two-column fold), groupby packs as many groups'
// sums into one query's reply as the key's plaintext holds.
type Plan struct {
	// Op echoes the spec's operation.
	Op string
	// Steps are the cluster queries, run in order.
	Steps []Step
	// Checkpoint, when non-nil, is called with the step label after each
	// successful step — the gateway's journal hook. Steps are read-only
	// against the cluster, so checkpoints gate nothing; they record progress.
	Checkpoint func(step string)
	// finish combines the decrypted per-step sums (sums[i][j] is step i's
	// j'th column, in ascending ColumnSet bit order) into the result.
	finish func(sums [][]*big.Int) (*Result, error)
}

// Result is a job's plaintext outcome. Exact values only: integers are
// decimal strings, ratio statistics are exact rationals rendered as "p/q"
// (big.Rat.RatString), so nothing is rounded before the analyst sees it.
type Result struct {
	Op    string `json:"op"`
	Count int    `json:"count"`
	// Sum is Σx over the selection (sum/mean/variance).
	Sum string `json:"sum,omitempty"`
	// SumSquares is Σx² (variance).
	SumSquares string `json:"sum_squares,omitempty"`
	// Mean is the exact mean (mean/variance).
	Mean string `json:"mean,omitempty"`
	// Variance is the exact population variance (m·Q − S²)/m².
	Variance string `json:"variance,omitempty"`
	// Covariance is the exact population covariance (m·Σxy − Σx·Σy)/m².
	Covariance string `json:"covariance,omitempty"`
	// Groups holds per-group rows for groupby, indexed by group.
	Groups []GroupResult `json:"groups,omitempty"`
}

// GroupResult is one group's row in a groupby result.
type GroupResult struct {
	Group int    `json:"group"`
	Count int    `json:"count"`
	Sum   string `json:"sum"`
	// Mean is empty for groups with no selected rows.
	Mean string `json:"mean,omitempty"`
}

// BuildPlan validates spec against schema and maps it onto steps. The
// returned plan is self-contained: it holds materialized selections and the
// finish arithmetic, so executing it needs only a query runner.
func BuildPlan(spec *JobSpec, schema Schema) (*Plan, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	sel, err := spec.Selection.Build(schema.Rows)
	if err != nil {
		return nil, err
	}
	m := sel.Count()
	bm := big.NewInt(int64(m))

	switch spec.Op {
	case OpSum:
		return &Plan{
			Op:    OpSum,
			Steps: []Step{{Label: "sum", Sel: sel, Columns: wire.ColValue, Group: -1}},
			finish: func(sums [][]*big.Int) (*Result, error) {
				return &Result{Op: OpSum, Count: m, Sum: sums[0][0].String()}, nil
			},
		}, nil

	case OpMean:
		return &Plan{
			Op:    OpMean,
			Steps: []Step{{Label: "mean", Sel: sel, Columns: wire.ColValue, Group: -1}},
			finish: func(sums [][]*big.Int) (*Result, error) {
				s := sums[0][0]
				return &Result{
					Op:    OpMean,
					Count: m,
					Sum:   s.String(),
					Mean:  new(big.Rat).SetFrac(s, bm).RatString(),
				}, nil
			},
		}, nil

	case OpVariance, OpCovariance:
		// One query, two folds: the encrypted selection feeds the value and
		// square columns in a single round. Covariance on this repo's
		// single-column tables is the self-covariance cov(x, x): Σxy = Σx²,
		// so the same step serves both and the identity
		// (m·Σxy − Σx·Σy)/m² degenerates to the variance.
		return &Plan{
			Op:    spec.Op,
			Steps: []Step{{Label: "moments", Sel: sel, Columns: wire.ColValue | wire.ColSquare, Group: -1}},
			finish: func(sums [][]*big.Int) (*Result, error) {
				s, q := sums[0][0], sums[0][1]
				// (m·Q − S²) / m²
				num := new(big.Int).Mul(bm, q)
				num.Sub(num, new(big.Int).Mul(s, s))
				ratio := new(big.Rat).SetFrac(num, new(big.Int).Mul(bm, bm)).RatString()
				res := &Result{Op: spec.Op, Count: m, Sum: s.String(), SumSquares: q.String()}
				if spec.Op == OpVariance {
					res.Mean = new(big.Rat).SetFrac(s, bm).RatString()
					res.Variance = ratio
				} else {
					res.Covariance = ratio
				}
				return res, nil
			},
		}, nil

	case OpGroupBy:
		// The secret selection, every selected row weighted by its (public)
		// group's slot: one reply plaintext carries the sums of up to
		// capacity consecutive groups, so a group-by is one query whenever
		// the key is wide enough, and ⌈G/capacity⌉ otherwise. Counts are
		// local knowledge — the gateway authored the selection — so only
		// the sums touch the protocol. A step with nothing selected is not
		// sent: its groups are known to be empty.
		p := spec.Params
		width := slotWidth(schema.Rows)
		capacity := slotCapacity(schema.PlaintextBits, width)
		counts := make([]int, p.Groups)
		stepSels := make([]*database.Selection, (p.Groups+capacity-1)/capacity)
		for i := range stepSels {
			if stepSels[i], err = database.NewSelection(schema.Rows); err != nil {
				return nil, err
			}
		}
		for i, g := range p.Labels {
			if sel.Bit(i) == 1 {
				counts[g]++
				stepSels[g/capacity].Set(i)
			}
		}
		// units[k] is the weight of slot k, shared by every step and never
		// modified.
		units := make([]*big.Int, min(capacity, p.Groups))
		for k := range units {
			units[k] = new(big.Int).Lsh(big.NewInt(1), uint(k*width))
		}
		labels := p.Labels
		var steps []Step
		for i, stepSel := range stepSels {
			if stepSel.Count() == 0 {
				continue
			}
			lo := i * capacity
			hi := min(lo+capacity, p.Groups)
			label := fmt.Sprintf("group%d", lo)
			if hi-lo > 1 {
				label = fmt.Sprintf("groups%d-%d", lo, hi-1)
			}
			steps = append(steps, Step{
				Label:   label,
				Sel:     stepSel,
				Columns: wire.ColValue,
				Group:   lo,
				Slots:   hi - lo,
				Weight:  func(row int) *big.Int { return units[labels[row]-lo] },
			})
		}
		groups := p.Groups
		return &Plan{
			Op:    OpGroupBy,
			Steps: steps,
			finish: func(sums [][]*big.Int) (*Result, error) {
				res := &Result{Op: OpGroupBy, Count: m, Groups: make([]GroupResult, groups)}
				for g := range res.Groups {
					res.Groups[g] = GroupResult{Group: g, Count: counts[g], Sum: "0"}
				}
				mask := new(big.Int).Lsh(big.NewInt(1), uint(width))
				mask.Sub(mask, big.NewInt(1))
				for i, st := range steps {
					// A reply wider than its slots, or with bits in the slot
					// of a group nothing was selected from, is not the fold
					// of this upload: fail rather than report a statistic.
					packed := sums[i][0]
					if packed.Sign() < 0 || packed.BitLen() > st.Slots*width {
						return nil, fmt.Errorf("jobs: step %s: reply is %d bits wide, its %d slots of %d bits hold %d",
							st.Label, packed.BitLen(), st.Slots, width, st.Slots*width)
					}
					for k := 0; k < st.Slots; k++ {
						s := new(big.Int).Rsh(packed, uint(k*width))
						s.And(s, mask)
						row := &res.Groups[st.Group+k]
						if row.Count == 0 {
							if s.Sign() != 0 {
								return nil, fmt.Errorf("jobs: step %s: slot of empty group %d holds a non-zero sum", st.Label, row.Group)
							}
							continue
						}
						row.Sum = s.String()
						row.Mean = new(big.Rat).SetFrac(s, big.NewInt(int64(row.Count))).RatString()
					}
				}
				return res, nil
			},
		}, nil
	}
	return nil, badJob("op", "unknown op %q", spec.Op)
}
