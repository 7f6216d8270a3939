package selectedsum

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/netsim"
	"privstats/internal/paillier"
	"privstats/internal/testutil"
	"privstats/internal/wire"
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
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: chunk})
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
	res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 50})
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

// TestRunPreprocessedCorrectnessAndSpeed: a run that draws its bits from a
// filled store is correct, never falls back online, and encrypts in under
// half the client time of an online run. The comparison is of two
// wall-clock measurements, so each is sized to ≥ 10 ms (on a 2-vCPU IFMA
// host an online run of n rows reads ≈ 17 ms and a pooled one ≈ 0.4 ms, so
// the pooled side sums pooledRuns runs and compares their mean), after one
// untimed run of each kind that warms the key's randomizer batch, the
// store's draw path and the heap: on a host that runs two test binaries at
// once, a ~2 ms measurement reads a neighbour's preemption as the cost.
func TestRunPreprocessedCorrectnessAndSpeed(t *testing.T) {
	const n, pooledRuns = 2000, 30
	sk := testKey(t)
	pk := tkKey.Public()
	table, sel, want := fixture(t, n, n/2)

	store := paillier.NewBitStore(pk)
	if err := store.Fill((pooledRuns+1)*n/2, (pooledRuns+1)*n/2); err != nil {
		t.Fatal(err)
	}
	pooled := func() time.Duration {
		res, err := Run(sk, table, sel, Options{
			Link: netsim.ShortDistance,
			Pool: paillier.SchemeBitStore{Store: store},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sum.Cmp(want) != 0 {
			t.Errorf("pooled sum=%v want %v", res.Sum, want)
		}
		return res.Timings.ClientEncrypt
	}
	online := func() time.Duration {
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sum.Cmp(want) != 0 {
			t.Errorf("online sum=%v want %v", res.Sum, want)
		}
		return res.Timings.ClientEncrypt
	}
	pooled()
	online()

	var pooledSum time.Duration
	for range pooledRuns {
		pooledSum += pooled()
	}
	if store.OnlineFallbacks() != 0 {
		t.Errorf("preprocessed runs fell back online %d times", store.OnlineFallbacks())
	}
	// Preprocessed client time should be well under online client time.
	onlineTime := online()
	if pooledMean := pooledSum / pooledRuns; pooledMean*2 >= onlineTime {
		t.Errorf("preprocessing did not help: pooled %v per run (%v over %d runs) vs online %v",
			pooledMean, pooledSum, pooledRuns, onlineTime)
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

// TestRunByteAccounting holds Run's byte counts to the deployable client's:
// what a QueryVector↔ServeSource session's client conn meters over net.Pipe
// for the same key, selection and chunk size — hello, chunks and the done
// frame up, the sum down.
func TestRunByteAccounting(t *testing.T) {
	sk := testKey(t)
	table, sel, _ := fixture(t, 100, 50)
	width := sk.PublicKey().CiphertextSize()
	for _, chunk := range []int{0, 10, 33} {
		res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		conn, errc := servePair(t, table)
		if _, err := Query(conn, sk, sel, chunk, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		up, down, _, _ := conn.Meter.Snapshot()
		if res.BytesUp != up || res.BytesDown != down {
			t.Errorf("chunk=%d: Run counts %d up / %d down, the client conn metered %d / %d",
				chunk, res.BytesUp, res.BytesDown, up, down)
		}
		if res.BytesDown != int64(wire.FrameOverhead+width) {
			t.Errorf("chunk=%d: BytesDown = %d, want one sum frame (%d)", chunk, res.BytesDown, wire.FrameOverhead+width)
		}
	}
}

// TestRunLeavesNoGoroutine: Run and RunMulti drive both ends of a session
// on their own goroutines; a run that succeeds, one whose client gives up
// mid-upload and one the server rejects must all take every one of them
// down.
func TestRunLeavesNoGoroutine(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	table, sel, want := fixture(t, 60, 30)
	res, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 16})
	if err != nil || res.Sum.Cmp(want) != 0 {
		t.Fatalf("Run: %v, %v (want %v)", res, err, want)
	}
	multi, err := RunMulti(multiKeyGen(), table, sel, MultiOptions{Link: netsim.ShortDistance, Clients: 2, ChunkSize: 16})
	if err != nil || multi.Sum.Cmp(want) != 0 {
		t.Fatalf("RunMulti: %v, %v (want %v)", multi, err, want)
	}
	// A pool that fails mid-vector: the client gives up after a chunk has
	// gone out, the server sees the connection drop mid-session.
	store := paillier.NewBitStore(tkKey.Public())
	if _, err := Run(sk, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 16, Pool: &failingPool{paillier.SchemeBitStore{Store: store}, 20}}); err == nil {
		t.Error("Run with a failing pool succeeded")
	}
	// A hello the server cannot parse: it reports the error while a drain
	// goroutine consumes the rest of the upload.
	if _, err := Run(unknownSchemeKey{sk}, table, sel, Options{Link: netsim.ShortDistance, ChunkSize: 16}); err == nil {
		t.Error("Run under an unregistered scheme succeeded")
	}
}

// unknownSchemeKey is a working key whose hello names a scheme no server
// knows.
type unknownSchemeKey struct{ homomorphic.PrivateKey }

func (k unknownSchemeKey) PublicKey() homomorphic.PublicKey {
	return unknownSchemePK{k.PrivateKey.PublicKey()}
}

type unknownSchemePK struct{ homomorphic.PublicKey }

func (unknownSchemePK) SchemeName() string { return "no-such-scheme" }

// failingPool draws from its pool until left runs out, then fails.
type failingPool struct {
	homomorphic.EncryptorPool
	left int
}

func (p *failingPool) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	if p.left == 0 {
		return nil, errors.New("pool drained")
	}
	p.left--
	return p.EncryptorPool.DrawBit(bit)
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
