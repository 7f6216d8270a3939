package selectedsum

import (
	"math/big"
	"testing"
	"testing/quick"

	"privstats/internal/database"
	"privstats/internal/netsim"
)

// TestRunMatchesOracleProperty drives the full protocol with arbitrary
// values and selection bitmaps (testing/quick generates both) and checks
// the decrypted sum against direct arithmetic every time.
func TestRunMatchesOracleProperty(t *testing.T) {
	sk := testKey(t)
	prop := func(values []uint16, mask uint64) bool {
		if len(values) == 0 {
			return true
		}
		if len(values) > 24 {
			values = values[:24]
		}
		rows := make([]uint32, len(values))
		for i, v := range values {
			rows[i] = uint32(v)
		}
		table := database.New(rows)
		sel, err := database.NewSelection(len(rows))
		if err != nil {
			return false
		}
		want := new(big.Int)
		for i := range rows {
			if mask>>uint(i)&1 == 1 {
				sel.Set(i)
				want.Add(want, big.NewInt(int64(rows[i])))
			}
		}
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
		if err != nil {
			return false
		}
		return res.Sum.Cmp(want) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChunkingInvariantProperty: for any chunk size — 0 is the unbatched
// protocol — the protocol computes the same sum and sends the same number of
// ciphertexts.
func TestChunkingInvariantProperty(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 40, 20)
	prop := func(chunk uint8) bool {
		cs := int(chunk % 51)
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: cs})
		if err != nil {
			return false
		}
		if res.Sum.Cmp(want) != 0 {
			return false
		}
		wantChunks := 1
		if cs > 0 {
			wantChunks = (40 + cs - 1) / cs
		}
		return res.Chunks == wantChunks
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
