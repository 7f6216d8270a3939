package selectedsum

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/paillier"
)

var (
	tkOnce sync.Once
	tkKey  *paillier.PrivateKey
	tkErr  error
)

// testKey returns a shared 256-bit test key (generated once per package).
func testKey(t testing.TB) homomorphic.PrivateKey {
	t.Helper()
	tkOnce.Do(func() { tkKey, tkErr = paillier.KeyGen(rand.Reader, 256) })
	if tkErr != nil {
		t.Fatalf("KeyGen: %v", tkErr)
	}
	return paillier.SchemeKey{SK: tkKey}
}

// fixture builds a deterministic table and selection.
func fixture(t testing.TB, n, m int) (*database.Table, *database.Selection, *big.Int) {
	t.Helper()
	table, err := database.Generate(n, database.DistSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.GenerateSelection(n, m, database.PatternRandom, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	return table, sel, want
}

func TestRunPlainCorrectness(t *testing.T) {
	sk := testKey(t)
	for _, tc := range []struct{ n, m int }{
		{1, 0}, {1, 1}, {10, 5}, {64, 64}, {65, 0}, {200, 100},
	} {
		table, sel, want := fixture(t, tc.n, tc.m)
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, err)
		}
		if res.Sum.Cmp(want) != 0 {
			t.Errorf("n=%d m=%d: sum=%v want %v", tc.n, tc.m, res.Sum, want)
		}
		if res.Chunks != 1 {
			t.Errorf("n=%d: plain run sent %d chunks, want 1", tc.n, res.Chunks)
		}
	}
}

func TestRunAllSelectionPatterns(t *testing.T) {
	sk := testKey(t)
	table, err := database.Generate(150, database.DistUniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []database.SelectionPattern{database.PatternRandom, database.PatternPrefix, database.PatternStride} {
		sel, err := database.GenerateSelection(150, 40, p, 9)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := table.SelectedSum(sel)
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Sum.Cmp(want) != 0 {
			t.Errorf("%v: sum=%v want %v", p, res.Sum, want)
		}
	}
}

func TestRunBatchedCorrectnessAndChunking(t *testing.T) {
	sk := testKey(t)
	table, sel, want := fixture(t, 230, 115)
	for _, chunk := range []int{1, 7, 100, 230, 1000} {
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: chunk, Pipelined: true})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if res.Sum.Cmp(want) != 0 {
			t.Errorf("chunk=%d: sum=%v want %v", chunk, res.Sum, want)
		}
		wantChunks := (230 + chunk - 1) / chunk
		if chunk >= 230 {
			wantChunks = 1
		}
		if res.Chunks != wantChunks {
			t.Errorf("chunk=%d: %d chunks, want %d", chunk, res.Chunks, wantChunks)
		}
	}
}

func TestRunPipelinedTotalDoesNotExceedSequential(t *testing.T) {
	sk := testKey(t)
	table, sel, _ := fixture(t, 300, 150)
	res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 50, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline overlaps stages: Total must not exceed the sequential
	// sum of components (equality only if overlap is zero).
	if res.Timings.Total > res.Timings.Sum() {
		t.Errorf("pipelined Total %v > sequential Sum %v", res.Timings.Total, res.Timings.Sum())
	}
	if res.Timings.Total <= 0 {
		t.Error("Total must be positive")
	}
}

func TestRunPreprocessedCorrectnessAndSpeed(t *testing.T) {
	sk := testKey(t)
	pk := tkKey.Public()
	table, sel, want := fixture(t, 200, 100)

	store := paillier.NewBitStore(pk)
	if err := store.Fill(200, 200); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sk, table, sel, Options{
		Link: netsim.ShortDistance,
		Pool: paillier.SchemeBitStore{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(want) != 0 {
		t.Errorf("sum=%v want %v", res.Sum, want)
	}
	if store.OnlineFallbacks() != 0 {
		t.Errorf("preprocessed run fell back online %d times", store.OnlineFallbacks())
	}

	// Preprocessed client time should be well under online client time.
	online, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.ClientEncrypt*2 >= online.Timings.ClientEncrypt {
		t.Errorf("preprocessing did not help: pooled %v vs online %v",
			res.Timings.ClientEncrypt, online.Timings.ClientEncrypt)
	}
}

func TestRunCombinedOptimizations(t *testing.T) {
	sk := testKey(t)
	pk := tkKey.Public()
	table, sel, want := fixture(t, 150, 75)
	store := paillier.NewBitStore(pk)
	if err := store.Fill(150, 150); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sk, table, sel, Options{
		Link:      netsim.ShortDistance,
		ChunkSize: 25,
		Pipelined: true,
		Pool:      paillier.SchemeBitStore{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Cmp(want) != 0 {
		t.Errorf("sum=%v want %v", res.Sum, want)
	}
}

func TestRunEmptySelection(t *testing.T) {
	sk := testKey(t)
	table, err := database.Generate(50, database.DistUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.NewSelection(50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Sign() != 0 {
		t.Errorf("empty selection sum = %v, want 0", res.Sum)
	}
}

func TestRunAllZeroDatabase(t *testing.T) {
	sk := testKey(t)
	table := database.New(make([]uint32, 40))
	sel, err := database.GenerateSelection(40, 20, database.PatternRandom, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum.Sign() != 0 {
		t.Errorf("all-zero database sum = %v, want 0", res.Sum)
	}
}

func TestRunValidation(t *testing.T) {
	sk := testKey(t)
	table, _ := database.Generate(10, database.DistUniform, 1)
	sel, _ := database.NewSelection(9) // wrong length
	if _, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance}); err == nil {
		t.Error("selection/table length mismatch should fail")
	}
	sel10, _ := database.NewSelection(10)
	if _, err := Run(nil, table, sel10, Options{Link: netsim.ShortDistance}); err == nil {
		t.Error("nil key should fail")
	}
	if _, err := Run(sk, table, sel10, Options{}); err == nil {
		t.Error("zero link should fail")
	}
}

func TestRunByteAccounting(t *testing.T) {
	sk := testKey(t)
	table, sel, _ := fixture(t, 100, 50)
	res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
	if err != nil {
		t.Fatal(err)
	}
	width := sk.PublicKey().CiphertextSize()
	// Uplink must include 100 ciphertexts plus framing and hello.
	if res.BytesUp <= int64(100*width) {
		t.Errorf("BytesUp = %d, must exceed raw ciphertext bytes %d", res.BytesUp, 100*width)
	}
	if res.BytesDown != int64(5+width) {
		t.Errorf("BytesDown = %d, want %d", res.BytesDown, 5+width)
	}
	// Batched run moves slightly more (per-chunk framing) but same order.
	batched, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 10, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if batched.BytesUp <= res.BytesUp {
		t.Errorf("batched BytesUp %d should exceed unbatched %d (extra frame headers)", batched.BytesUp, res.BytesUp)
	}
}

func TestResponseIsRerandomized(t *testing.T) {
	// Two sessions over identical inputs must return different ciphertext
	// bytes for the same sum (fresh randomness at finalize).
	sk := testKey(t)
	pk := sk.PublicKey()
	table, sel, _ := fixture(t, 20, 10)

	finalCt := func() []byte {
		srv, err := NewShardSession(pk, table.Column(), uint64(table.Len()), 0)
		if err != nil {
			t.Fatal(err)
		}
		body, err := EncryptRange(Online{PK: pk}, sel, 0, 20, pk.CiphertextSize())
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Absorb(decodeChunk(t, body, 0, pk.CiphertextSize())); err != nil {
			t.Fatal(err)
		}
		ct, err := srv.Finalize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return ct.Bytes()
	}
	a, b := finalCt(), finalCt()
	if string(a) == string(b) {
		t.Fatal("two runs produced byte-identical responses")
	}
}
