package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/trace"
)

// Slot-packed group-by. The failure mode of a packing mistake is a wrong
// statistic, not an error, so everything here compares against an oracle
// computed from the plaintext table with exact rationals, at the values, row
// counts and group counts where a slot would first carry into its neighbour.

// fixtureKey loads a committed key (the benchmark's fixtures): the slot
// capacity depends on the modulus width, so the boundary cases need keys of
// known size.
func fixtureKey(t testing.TB, bits int) paillier.SchemeKey {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("key%d.bin", bits)))
	if err != nil {
		t.Fatal(err)
	}
	sk := new(paillier.PrivateKey)
	if err := sk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got := sk.Public().N.BitLen(); got != bits {
		t.Fatalf("fixture key%d.bin has a %d-bit modulus", bits, got)
	}
	return paillier.SchemeKey{SK: sk}
}

// groupByOracle is the expected result of a group-by, from the plaintext.
func groupByOracle(values []uint32, sel *database.Selection, labels []int, groups int) *Result {
	sums := make([]*big.Int, groups)
	counts := make([]int, groups)
	for g := range sums {
		sums[g] = new(big.Int)
	}
	for _, i := range sel.Indices() {
		sums[labels[i]].Add(sums[labels[i]], big.NewInt(int64(values[i])))
		counts[labels[i]]++
	}
	res := &Result{Op: OpGroupBy, Count: sel.Count(), Groups: make([]GroupResult, groups)}
	for g := range res.Groups {
		res.Groups[g] = GroupResult{Group: g, Count: counts[g], Sum: sums[g].String()}
		if counts[g] > 0 {
			res.Groups[g].Mean = new(big.Rat).SetFrac(sums[g], big.NewInt(int64(counts[g]))).RatString()
		}
	}
	return res
}

// foldPlan plays the server for every step of plan: the reply to an upload of
// E(w_i) is Σ w_i·x_i mod N, w_i being the step's weight for a selected row.
func foldPlan(plan *Plan, values []uint32, space *big.Int) [][]*big.Int {
	out := make([][]*big.Int, len(plan.Steps))
	for s, st := range plan.Steps {
		sum := new(big.Int)
		for _, i := range st.Sel.Indices() {
			w := big.NewInt(1)
			if st.Weight != nil {
				w = st.Weight(i)
			}
			sum.Add(sum, new(big.Int).Mul(w, big.NewInt(int64(values[i]))))
		}
		out[s] = []*big.Int{sum.Mod(sum, space)}
	}
	return out
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// boundaryLabels are the group layouts worth a case each: rows dealt round
// the groups, and all rows but one in a single group with the odd row in the
// next slot up, where a carry out of the full slot would land.
func boundaryLabels(n, groups int) map[string][]int {
	striped := make([]int, n)
	for i := range striped {
		striped[i] = i % groups
	}
	heavy := func(g int) []int {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = g
		}
		labels[0] = g + 1
		return labels
	}
	return map[string][]int{"striped": striped, "low-heavy": heavy(0), "high-heavy": heavy(groups - 2)}
}

// boundarySelections are the selections of an n-row table worth a case each.
func boundarySelections(n int, labels []int) map[string]SelectionSpec {
	var notGroup1 []int
	for i := 0; i < n; i++ {
		if labels[i] != 1 {
			notGroup1 = append(notGroup1, i)
		}
	}
	return map[string]SelectionSpec{
		"all":             {All: true},
		"single row":      {Rows: []int{n - 1}},
		"empty":           {Ranges: [][2]int{{0, 0}}},
		"one empty group": {Rows: notGroup1},
	}
}

// TestPackedGroupBySlotBoundaries: every value 2^32−1, n on both sides of a
// power of two (where the slot width steps), G on both sides of the capacity
// (where the plan splits), under both key widths. Each result must equal the
// oracle byte for byte, and equal what the same spec yields when planned one
// group per query.
func TestPackedGroupBySlotBoundaries(t *testing.T) {
	for _, bits := range []int{512, 1024} {
		pk := fixtureKey(t, bits).PublicKey()
		space := pk.PlaintextSpace()
		for _, n := range []int{7, 8, 9, 63, 64, 65} {
			values := make([]uint32, n)
			for i := range values {
				values[i] = 1<<32 - 1
			}
			capacity := slotCapacity(bits, slotWidth(n))
			for _, groups := range []int{capacity - 1, capacity, capacity + 1} {
				for layout, labels := range boundaryLabels(n, groups) {
					for name, selSpec := range boundarySelections(n, labels) {
						tc := fmt.Sprintf("%d bits, n=%d, G=%d, %s labels, %s", bits, n, groups, layout, name)
						spec := &JobSpec{Op: OpGroupBy, Selection: selSpec, Params: &GroupByParams{Labels: labels, Groups: groups}}
						sel, err := selSpec.Build(n)
						if err != nil {
							t.Fatalf("%s: %v", tc, err)
						}
						want := mustJSON(t, groupByOracle(values, sel, labels, groups))

						for _, schema := range []Schema{
							{Rows: n, Columns: []string{"value"}, PlaintextBits: bits},
							{Rows: n, Columns: []string{"value"}}, // capacity 1
						} {
							plan, err := BuildPlan(spec, schema)
							if err != nil {
								t.Fatalf("%s: %v", tc, err)
							}
							if err := checkPlaintextBounds(plan, pk); err != nil {
								t.Fatalf("%s: %v", tc, err)
							}
							// One step per block of groups with a selected row.
							perStep := slotCapacity(schema.PlaintextBits, slotWidth(n))
							blocks := map[int]bool{}
							for _, i := range sel.Indices() {
								blocks[labels[i]/perStep] = true
							}
							if len(plan.Steps) != len(blocks) {
								t.Errorf("%s (plaintext bits %d): %d steps, want %d", tc, schema.PlaintextBits, len(plan.Steps), len(blocks))
							}
							res, err := plan.finish(foldPlan(plan, values, space))
							if err != nil {
								t.Fatalf("%s (plaintext bits %d): %v", tc, schema.PlaintextBits, err)
							}
							if got := mustJSON(t, res); !bytes.Equal(got, want) {
								t.Errorf("%s (plaintext bits %d):\n got %s\nwant %s", tc, schema.PlaintextBits, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestGroupByUplinksIndependentOfStrata: while the groups fit one plaintext,
// a non-empty selection costs exactly one upload of all n rows, whichever
// strata it touches. (One query per non-empty stratum told the server how
// many strata the selection met.)
func TestGroupByUplinksIndependentOfStrata(t *testing.T) {
	const n, groups = 60, 6
	schema := Schema{Rows: n, Columns: []string{"value"}, PlaintextBits: 256}
	if c := slotCapacity(schema.PlaintextBits, slotWidth(n)); c < groups {
		t.Fatalf("capacity %d cannot hold %d groups", c, groups)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % groups
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		// Select from a random non-empty subset of the strata only.
		strata := rng.Intn(1<<groups-1) + 1
		var rows []int
		for i := 0; i < n; i++ {
			if strata&(1<<labels[i]) != 0 && (rng.Intn(3) > 0 || len(rows) == 0) {
				rows = append(rows, i)
			}
		}
		spec := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{Rows: rows}, Params: &GroupByParams{Labels: labels, Groups: groups}}
		plan, err := BuildPlan(spec, schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != 1 || plan.Steps[0].Sel.Len() != n || plan.Steps[0].Slots != groups {
			t.Fatalf("strata %06b: %d steps (%+v), want one upload of %d rows carrying %d slots", strata, len(plan.Steps), plan.Steps, n, groups)
		}
	}
}

// narrowKey is a key pair that claims a plaintext space of only bits bits.
type narrowKey struct {
	homomorphic.PrivateKey
	bits int
}

type narrowPublic struct {
	homomorphic.PublicKey
	bits int
}

func (k narrowKey) PublicKey() homomorphic.PublicKey {
	return narrowPublic{k.PrivateKey.PublicKey(), k.bits}
}

func (k narrowPublic) PlaintextSpace() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(k.bits-1))
}

// TestCheckPlaintextBounds: both ways a reply can outgrow the key are one
// structured [bad-job] rejection.
func TestCheckPlaintextBounds(t *testing.T) {
	const n = 10 // slot width 36
	schema := Schema{Rows: n, Columns: []string{"value"}}
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	groupBy := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{All: true}, Params: &GroupByParams{Labels: labels, Groups: 3}}
	variance := &JobSpec{Op: OpVariance, Selection: SelectionSpec{All: true}}
	sum := &JobSpec{Op: OpSum, Selection: SelectionSpec{All: true}}

	for _, tc := range []struct {
		name       string
		spec       *JobSpec
		planBits   int // what the planner believes
		keyBits    int // what the key holds
		wantReject bool
	}{
		{"three slots fit 109 bits", groupBy, 109, 109, false},
		{"three slots do not fit 108 bits", groupBy, 109, 108, true},
		{"planned for the key, 108 bits split", groupBy, 108, 108, false},
		{"one slot does not fit 36 bits", groupBy, 36, 36, true},
		{"sum fits 37 bits", sum, 0, 37, false},
		{"sum does not fit 36 bits", sum, 0, 36, true},
		{"sum of squares fits 69 bits", variance, 0, 69, false},
		{"sum of squares does not fit 68 bits", variance, 0, 68, true},
	} {
		schema.PlaintextBits = tc.planBits
		plan, err := BuildPlan(tc.spec, schema)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = checkPlaintextBounds(plan, narrowPublic{jobTestKey(t).PublicKey(), tc.keyBits})
		var bad *BadJobError
		switch {
		case !tc.wantReject && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantReject && (!errors.As(err, &bad) || bad.Field != "key" || !strings.HasPrefix(err.Error(), "[bad-job] key: ")):
			t.Errorf("%s: got %v, want a [bad-job] key: rejection", tc.name, err)
		}
	}
}

// TestGatewayRejectsOverflowAtSubmit: a job whose reply cannot fit the key is
// an HTTP 400 with the [bad-job] code — never a 202, never a journal record —
// and the executor refuses the same plan should it be handed one directly.
func TestGatewayRejectsOverflowAtSubmit(t *testing.T) {
	dir := t.TempDir()
	exec := &Executor{
		Client:   cluster.NewClient(cluster.ClientConfig{}),
		Backends: []string{"127.0.0.1:1"},
		Key:      narrowKey{jobTestKey(t), 68},
	}
	g, err := NewGateway(GatewayConfig{
		Schema:   Schema{Rows: 10, Columns: []string{"value"}},
		Exec:     exec,
		Tenants:  oneTenant(),
		StoreDir: dir,
		Logf:     discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	journal := func() []byte {
		data, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := journal()

	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(`{"op":"variance","selection":{"all":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.String(), "[bad-job] key: ") {
		t.Fatalf("overflowing variance: status %d, body %s", resp.StatusCode, body.String())
	}
	if after := journal(); !bytes.Equal(before, after) {
		t.Errorf("the rejected job reached the journal: %d bytes became %d", len(before), len(after))
	}
	m := g.Metrics().Tenant("acme")
	if m.Submitted.Value() != 1 || m.Rejected.Value() != 1 || m.Admitted.Value() != 0 {
		t.Errorf("counters: submitted %d rejected %d admitted %d", m.Submitted.Value(), m.Rejected.Value(), m.Admitted.Value())
	}

	plan, err := BuildPlan(&JobSpec{Op: OpVariance, Selection: SelectionSpec{All: true}}, Schema{Rows: 10, Columns: []string{"value"}})
	if err != nil {
		t.Fatal(err)
	}
	var bad *BadJobError
	if _, err := exec.Run(context.Background(), plan, trace.NewID()); !errors.As(err, &bad) {
		t.Errorf("Executor.Run on an overflowing plan: %v, want a *BadJobError", err)
	}
}

// TestPackedFinishRefusesForeignPlaintext: a reply that is not the fold of
// the step's upload fails the job; no statistic is read out of it.
func TestPackedFinishRefusesForeignPlaintext(t *testing.T) {
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	spec := &JobSpec{
		Op:        OpGroupBy,
		Selection: SelectionSpec{Rows: []int{0, 2}}, // groups 0 and 2; group 1 is empty
		Params:    &GroupByParams{Labels: labels, Groups: 3},
	}
	schema := testSchema()
	schema.PlaintextBits = 256
	plan, err := BuildPlan(spec, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("%d steps, want 1", len(plan.Steps))
	}
	width := uint(slotWidth(schema.Rows))
	slot := func(k uint, v int64) *big.Int { return new(big.Int).Lsh(big.NewInt(v), k*width) }
	add := func(xs ...*big.Int) []*big.Int {
		sum := new(big.Int)
		for _, x := range xs {
			sum.Add(sum, x)
		}
		return []*big.Int{sum}
	}

	res, err := plan.finish([][]*big.Int{add(slot(0, 7), slot(2, 9))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Sum != "7" || res.Groups[1].Sum != "0" || res.Groups[2].Sum != "9" {
		t.Fatalf("groups %+v", res.Groups)
	}
	if res, err := plan.finish([][]*big.Int{add(slot(0, 7), slot(1, 1), slot(2, 9))}); err == nil {
		t.Errorf("a sum in the empty group's slot yielded %+v", res)
	}
	if res, err := plan.finish([][]*big.Int{add(slot(0, 7), slot(3, 1))}); err == nil {
		t.Errorf("a reply wider than its slots yielded %+v", res)
	}
}

// TestPackedGroupByEncryptRoutes runs a group-by that splits into two packed
// steps against a live server, every value 2^32−1, once per way the gateway
// can encrypt a weight and under both key widths.
func TestPackedGroupByEncryptRoutes(t *testing.T) {
	const n = 32
	values := make([]uint32, n)
	for i := range values {
		values[i] = 1<<32 - 1
	}
	srv, err := server.New(database.New(values), server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, srv)

	for _, bits := range []int{512, 1024} {
		sk := fixtureKey(t, bits)
		groups := slotCapacity(bits, slotWidth(n)) + 1
		labels := make([]int, n)
		var rows []int
		for i := range labels {
			labels[i] = i % groups
			if labels[i] != 1 {
				rows = append(rows, i)
			}
		}
		spec := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{Rows: rows}, Params: &GroupByParams{Labels: labels, Groups: groups}}
		sel, err := spec.Selection.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, groupByOracle(values, sel, labels, groups))
		plan, err := BuildPlan(spec, Schema{Rows: n, Columns: []string{"value"}, PlaintextBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != 2 {
			t.Fatalf("%d bits: %d steps for %d groups, want 2", bits, len(plan.Steps), groups)
		}

		store := paillier.NewBitStoreOwner(sk.SK)
		if err := store.Fill(4*n, 0); err != nil {
			t.Fatal(err)
		}
		pool := paillier.SchemeBitStore{Store: store}
		for _, route := range []struct {
			name string
			pool homomorphic.EncryptorPool
		}{
			{"pool + AddPlain", pool},
			{"no pool", nil},
		} {
			exec := &Executor{
				Client:    cluster.NewClient(cluster.ClientConfig{}),
				Backends:  []string{addr},
				Key:       sk,
				ChunkSize: 20,
				Pool:      route.pool,
			}
			res, err := exec.Run(context.Background(), plan, trace.NewID())
			if err != nil {
				t.Fatalf("%d bits, %s: %v", bits, route.name, err)
			}
			if got := mustJSON(t, res); !bytes.Equal(got, want) {
				t.Errorf("%d bits, %s:\n got %s\nwant %s", bits, route.name, got, want)
			}
		}
		if store.OnlineFallbacks() != 0 {
			t.Errorf("%d bits: the pool ran dry (%d online fallbacks): the routes were not the ones named", bits, store.OnlineFallbacks())
		}
	}
}
