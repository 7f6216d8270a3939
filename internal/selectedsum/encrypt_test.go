package selectedsum

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// tapSink is the backend's sink with a wiretap: it decrypts every uploaded
// ciphertext, in row order, and records each chunk's rows before folding it.
type tapSink struct {
	sourceSink
	sk     homomorphic.PrivateKey
	plain  []*big.Int
	chunks [][2]uint64 // [offset, offset+count) of every absorbed chunk
}

func (s *tapSink) Absorb(chunk *wire.IndexChunk) error {
	pk := s.sk.PublicKey()
	for i := range chunk.Count() {
		ct, err := pk.ParseCiphertext(chunk.At(i))
		if err != nil {
			return err
		}
		m, err := s.sk.Decrypt(ct)
		if err != nil {
			return err
		}
		s.plain = append(s.plain, m)
	}
	s.chunks = append(s.chunks, [2]uint64{chunk.Offset, chunk.Offset + uint64(chunk.Count())})
	return s.sourceSink.Absorb(chunk)
}

// tapPair is servePair with the server's sink tapped. The tap may be read
// once the error channel has delivered.
func tapPair(t *testing.T, sk homomorphic.PrivateKey, table *database.Table) (*wire.Conn, *tapSink, chan error) {
	t.Helper()
	a, b := net.Pipe()
	client, server := wire.NewConn(a), wire.NewConn(b)
	tap := &tapSink{sourceSink: sourceSink{src: table}, sk: sk}
	errc := make(chan error, 1)
	go func() {
		errc <- ServeSink(server, tap, nil)
		server.Close()
	}()
	t.Cleanup(func() { client.Close() })
	return client, tap, errc
}

// withProcs runs the rest of the (sub)test at GOMAXPROCS p, which is the
// number of workers QueryVector encrypts each chunk with.
func withProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestQueryVectorParallelEncrypt: whatever the worker count and wherever the
// chunk boundaries fall against the split grain, row i of the upload is an
// encryption of entry i, and the sums are the plaintext oracle's.
func TestQueryVectorParallelEncrypt(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	const n = 4*encryptMinRows + 3
	table, sel, wantSum := fixture(t, n, n/2)
	units := []*big.Int{big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 40), new(big.Int).Lsh(big.NewInt(1), 80)}
	weight := func(row int) *big.Int { return units[row%3] }
	wantPacked := new(big.Int)
	for _, i := range sel.Indices() {
		wantPacked.Add(wantPacked, new(big.Int).Mul(weight(i), big.NewInt(int64(table.Value(i)))))
	}

	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			for _, chunk := range []int{0, 1, encryptMinRows - 1, encryptMinRows, 2*encryptMinRows + 1, n} {
				for _, tc := range []struct {
					name  string
					src   VectorSource
					entry func(row int) *big.Int
					want  *big.Int
				}{
					{"selection", SelectionSource(sk, sel, nil), func(row int) *big.Int { return big.NewInt(int64(sel.Bit(row))) }, wantSum},
					{"packed", PackedSelectionSource(sk, sel, weight, nil), func(row int) *big.Int {
						if sel.Bit(row) == 0 {
							return new(big.Int)
						}
						return weight(row)
					}, wantPacked},
				} {
					conn, tap, errc := tapPair(t, sk, table)
					sums, err := QueryVector(conn, sk, tc.src, chunk, 0)
					if err != nil {
						t.Fatalf("chunk %d, %s: %v", chunk, tc.name, err)
					}
					if err := <-errc; err != nil {
						t.Fatalf("chunk %d, %s: serve: %v", chunk, tc.name, err)
					}
					if sums[0].Cmp(tc.want) != 0 {
						t.Errorf("chunk %d, %s: sum %v, want %v", chunk, tc.name, sums[0], tc.want)
					}
					if len(tap.plain) != n {
						t.Fatalf("chunk %d, %s: server saw %d rows, want %d", chunk, tc.name, len(tap.plain), n)
					}
					for i, m := range tap.plain {
						if want := tc.entry(i); m.Cmp(want) != 0 {
							t.Errorf("chunk %d, %s: row %d uploads E(%v), want E(%v)", chunk, tc.name, i, m, want)
						}
					}
				}
			}
		})
	}
}

// failAt is a vector source that fails at the given rows and encrypts every
// other row as its inner source does.
type failAt struct {
	VectorSource
	rows map[int]bool
}

func (s failAt) EncryptAt(i int) (homomorphic.Ciphertext, error) {
	if s.rows[i] {
		return nil, fmt.Errorf("row %d refused", i)
	}
	return s.VectorSource.EncryptAt(i)
}

// TestQueryVectorEncryptFailure: a chunk that fails at two rows, each in a
// different worker's sub-range, reports the lower row whatever the worker
// count; the chunks before it reach the server and no chunk holding either
// row does. Drawing is per chunk: the pool gives up nothing for the rows
// after the failing chunk.
func TestQueryVectorEncryptFailure(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	const n = 6 * encryptMinRows
	table, sel, _ := fixture(t, n, n/2)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			for _, tc := range []struct {
				chunk, start int    // the chunk size and the failing chunk's first row
				bad          [2]int // the failing rows, lower first
			}{
				{4 * encryptMinRows, 0, [2]int{encryptMinRows + 4, 2*encryptMinRows + 13}},
				{2 * encryptMinRows, 2 * encryptMinRows, [2]int{2*encryptMinRows + 10, 3*encryptMinRows + 4}},
			} {
				store := paillier.NewBitStoreOwner(sk.(paillier.SchemeKey).SK)
				if err := store.Fill(n, n); err != nil {
					t.Fatal(err)
				}
				rows := map[int]bool{tc.bad[0]: true, tc.bad[1]: true}
				src := failAt{SelectionSource(sk, sel, paillier.SchemeBitStore{Store: store}), rows}
				conn, tap, errc := tapPair(t, sk, table)
				_, err := QueryVector(conn, sk, src, tc.chunk, 0)
				conn.Close()
				<-errc
				want := fmt.Sprintf("selectedsum: encrypting entry %d: row %d refused", tc.bad[0], tc.bad[0])
				if err == nil || err.Error() != want {
					t.Fatalf("chunk %d: err = %v, want %q", tc.chunk, err, want)
				}
				if len(tap.chunks) != tc.start/tc.chunk {
					t.Errorf("chunk %d: chunks %v reached the server, want the %d before row %d", tc.chunk, tap.chunks, tc.start/tc.chunk, tc.start)
				}
				for _, c := range tap.chunks {
					if c[1] > uint64(tc.start) {
						t.Errorf("chunk %d: chunk [%d,%d) holding a failed row reached the server", tc.chunk, c[0], c[1])
					}
				}
				// Every row below the lower failure drew its bit. A worker
				// stops at its own first failure, so how much of the rest
				// of the failing chunk drew depends on the split, but no row
				// after that chunk drew anything.
				var least, most [2]int
				for i := range tc.start + tc.chunk {
					if i < tc.bad[0] {
						least[sel.Bit(i)]++
					}
					if !rows[i] {
						most[sel.Bit(i)]++
					}
				}
				for bit := range uint(2) {
					if got := n - store.Remaining(bit); got < least[bit] || got > most[bit] {
						t.Errorf("chunk %d: drew %d encryptions of %d, want %d to %d", tc.chunk, got, bit, least[bit], most[bit])
					}
				}
			}
		})
	}
}

// TestQueryVectorPoolDraw: a pooled query draws exactly one stocked bit per
// row, at every worker count — the selection's zero and one counts — and
// falls back to online encryption for none of them.
func TestQueryVectorPoolDraw(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	const n = 5*encryptMinRows + 7
	table, sel, want := fixture(t, n, n/3)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			store := paillier.NewBitStoreOwner(sk.(paillier.SchemeKey).SK)
			if err := store.Fill(n, n); err != nil {
				t.Fatal(err)
			}
			conn, errc := servePair(t, table)
			sum, err := Query(conn, sk, sel, 2*encryptMinRows+1, paillier.SchemeBitStore{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("serve: %v", err)
			}
			if sum.Cmp(want) != 0 {
				t.Errorf("sum %v, want %v", sum, want)
			}
			ones := sel.Count()
			if z, o := store.Remaining(0), store.Remaining(1); z != ones || o != n-ones {
				t.Errorf("stock left: %d zeros, %d ones; want %d and %d", z, o, ones, n-ones)
			}
			if f := store.OnlineFallbacks(); f != 0 {
				t.Errorf("%d online fallbacks", f)
			}
		})
	}
}

// gateSource blocks every EncryptAt until want calls are in flight at once,
// then lets them all through; it records the rows in flight at that moment
// and how often each row was asked for.
type gateSource struct {
	VectorSource
	want int

	mu      sync.Mutex
	waiting []int
	open    chan struct{}
	calls   map[int]int
}

func (s *gateSource) EncryptAt(i int) (homomorphic.Ciphertext, error) {
	s.mu.Lock()
	s.calls[i]++
	select {
	case <-s.open:
	default:
		s.waiting = append(s.waiting, i)
		if len(s.waiting) == s.want {
			close(s.open)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.open:
	case <-time.After(10 * time.Second):
		return nil, errors.New("gate never opened: fewer workers than expected")
	}
	return s.VectorSource.EncryptAt(i)
}

// TestEncryptRowsWorkers pins the split: a range runs on min(workers,
// rows/encryptMinRows) goroutines at once (at least one), each starting at
// its own contiguous sub-range, and every row is encrypted exactly once.
func TestEncryptRowsWorkers(t *testing.T) {
	testutil.GuardGoroutines(t)
	sk := testKey(t)
	_, sel, _ := fixture(t, 8*encryptMinRows, 30)
	width := sk.PublicKey().CiphertextSize()
	const lo = 5
	for _, tc := range []struct {
		rows, workers int
		starts        []int // relative to lo
	}{
		{encryptMinRows - 1, 4, []int{0}},
		{encryptMinRows, 4, []int{0}},
		{2*encryptMinRows - 1, 4, []int{0}},
		{2*encryptMinRows + 1, 4, []int{0, encryptMinRows}},
		{4 * encryptMinRows, 4, []int{0, encryptMinRows, 2 * encryptMinRows, 3 * encryptMinRows}},
		{4 * encryptMinRows, 2, []int{0, 2 * encryptMinRows}},
		{4 * encryptMinRows, 1, []int{0}},
	} {
		src := &gateSource{VectorSource: SelectionSource(sk, sel, nil), want: len(tc.starts), open: make(chan struct{}), calls: map[int]int{}}
		body, err := encryptRows(nil, src, lo, lo+tc.rows, width, tc.workers)
		if err != nil {
			t.Fatalf("%d rows, %d workers: %v", tc.rows, tc.workers, err)
		}
		if len(body) != tc.rows*width {
			t.Errorf("%d rows, %d workers: body of %d bytes, want %d", tc.rows, tc.workers, len(body), tc.rows*width)
		}
		got := make(map[int]bool)
		for _, r := range src.waiting {
			got[r-lo] = true
		}
		for _, s := range tc.starts {
			if !got[s] {
				t.Errorf("%d rows, %d workers: rows in flight at once %v, want the sub-range starts %v", tc.rows, tc.workers, src.waiting, tc.starts)
				break
			}
		}
		for i := lo; i < lo+tc.rows; i++ {
			if src.calls[i] != 1 {
				t.Errorf("%d rows, %d workers: row %d encrypted %d times", tc.rows, tc.workers, i, src.calls[i])
			}
		}
		if len(src.calls) != tc.rows {
			t.Errorf("%d rows, %d workers: %d rows encrypted, want %d", tc.rows, tc.workers, len(src.calls), tc.rows)
		}
	}
	if _, err := encryptRows(nil, failAt{SelectionSource(sk, sel, nil), map[int]bool{40: true}}, 0, 64, width, 4); err == nil || !strings.Contains(err.Error(), "entry 40") {
		t.Errorf("failing row: err = %v", err)
	}
}
