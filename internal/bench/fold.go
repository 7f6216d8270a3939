package bench

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"privstats/internal/mathx"
	"privstats/internal/paillier"
)

// The server-fold ablation: the naive ScalarMul+Add loop versus bucket
// multi-exponentiation (mathx.MultiExp) across session lengths and window
// widths, and — the comparison the streaming fold exists for — one one-shot
// bucket fold per uplink chunk versus one accumulator for the whole session.
// This is the microbenchmark behind the MultiScalarFolder fast path the
// selected-sum server takes; results/multiexp.txt records a reference run.

// foldChunks are the uplink chunk lengths of the per-chunk variants: the job
// gateway's and the pooled workloads' defaults.
var foldChunks = []int{256, 1024}

// FoldRow is one variant × session-length point of the fold ablation.
type FoldRow struct {
	Rows int
	// Variant is "naive", "bucket-w<N>", "bucket-auto", "bucket-auto-p<W>",
	// "chunk<C>-oneshot" (decode each C-row chunk, fold it on its own, add
	// the chunk sums) or "session-acc" (paillier.Fold fed the same encoded
	// rows, combined once).
	Variant string
	Window  uint // explicit window width; 0 = auto or not applicable
	Workers int  // 0 or 1 = sequential
	Time    time.Duration
	Mallocs uint64 // heap allocations during the variant
}

// PerRow returns the amortized per-row fold time.
func (r FoldRow) PerRow() time.Duration {
	if r.Rows == 0 {
		return 0
	}
	return r.Time / time.Duration(r.Rows)
}

// MallocsPerRow returns the amortized per-row allocation count.
func (r FoldRow) MallocsPerRow() float64 {
	if r.Rows == 0 {
		return 0
	}
	return float64(r.Mallocs) / float64(r.Rows)
}

// FoldAblation times Π ct_i^{x_i} over identical inputs (encrypted index
// bits, nonzero 32-bit scalars) through every fold variant. Correctness is
// pinned exactly: the fold is a plain product in Z_{N²}, so every variant
// must produce the bit-identical group element, not merely the same
// decryption.
func (c Config) FoldAblation(sessionRows []int, windows []uint, workers int) ([]FoldRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(sessionRows) == 0 {
		sessionRows = []int{256, 1024, 4096, 10000}
	}
	if len(windows) == 0 {
		windows = []uint{2, 4, 6, 8}
	}
	if workers < 2 {
		workers = 4
	}
	maxN := 0
	for _, n := range sessionRows {
		if n < 1 {
			return nil, fmt.Errorf("bench: fold session length %d must be positive", n)
		}
		if n > maxN {
			maxN = n
		}
	}
	_, rawSK, err := c.newKey()
	if err != nil {
		return nil, err
	}
	pk := rawSK.Public()
	width := pk.CiphertextSize()

	// One shared workload: index-bit ciphertexts and dense 32-bit scalars
	// (the server's worst case — no zero rows to skip).
	rng := rand.New(rand.NewSource(c.Seed))
	cts := make([]*paillier.Ciphertext, maxN)
	bases := make([]*big.Int, maxN)
	exps := make([]uint64, maxN)
	var body []byte // the rows as they arrive on the wire
	for i := range cts {
		ct, err := pk.Encrypt(big.NewInt(int64(i % 2)))
		if err != nil {
			return nil, err
		}
		cts[i] = ct
		bases[i] = ct.Value()
		exps[i] = uint64(rng.Uint32()) | 1
		body = ct.AppendBytes(body)
	}

	var rows []FoldRow
	scalar := new(big.Int)
	// add folds one more term into a running sum that starts out nil.
	add := func(acc, term *paillier.Ciphertext) (*paillier.Ciphertext, error) {
		if acc == nil {
			return term, nil
		}
		return pk.Add(acc, term)
	}
	for _, n := range sessionRows {
		first := len(rows) // the naive row, which sets the group element to match
		var want *big.Int
		// measure runs one variant, checks its group element against the
		// naive loop's, and records its time and allocations.
		measure := func(row FoldRow, fold func() (*big.Int, error)) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			got, err := fold()
			row.Time = time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			if want == nil {
				want = got
			} else if got.Cmp(want) != 0 {
				return fmt.Errorf("bench: fold %s at n=%d produced a different group element", row.Variant, n)
			}
			row.Rows, row.Mallocs = n, after.Mallocs-before.Mallocs
			rows = append(rows, row)
			return nil
		}

		err := measure(FoldRow{Variant: "naive"}, func() (*big.Int, error) {
			var acc *paillier.Ciphertext
			for i := 0; i < n; i++ {
				term, err := pk.ScalarMul(cts[i], scalar.SetUint64(exps[i]))
				if err != nil {
					return nil, err
				}
				if acc, err = add(acc, term); err != nil {
					return nil, err
				}
			}
			return acc.Value(), nil
		})
		if err != nil {
			return nil, err
		}
		for _, w := range windows {
			err := measure(FoldRow{Variant: fmt.Sprintf("bucket-w%d", w), Window: w}, func() (*big.Int, error) {
				return mathx.MultiExp(bases[:n], exps[:n], pk.NSquared, w)
			})
			if err != nil {
				return nil, err
			}
		}
		err = measure(FoldRow{Variant: "bucket-auto"}, func() (*big.Int, error) {
			return mathx.MultiExp(bases[:n], exps[:n], pk.NSquared, 0)
		})
		if err != nil {
			return nil, err
		}
		err = measure(FoldRow{Variant: fmt.Sprintf("bucket-auto-p%d", workers), Workers: workers}, func() (*big.Int, error) {
			return mathx.MultiExpParallel(bases[:n], exps[:n], pk.NSquared, 0, workers)
		})
		if err != nil {
			return nil, err
		}

		// What a server session does with the encoded rows: a one-shot fold
		// per uplink chunk, then one accumulator for the session.
		for _, chunk := range foldChunks {
			if chunk > n {
				continue
			}
			err := measure(FoldRow{Variant: fmt.Sprintf("chunk%d-oneshot", chunk)}, func() (*big.Int, error) {
				var acc *paillier.Ciphertext
				for lo := 0; lo < n; lo += chunk {
					hi := min(n, lo+chunk)
					parsed := make([]*paillier.Ciphertext, 0, hi-lo)
					for i := lo; i < hi; i++ {
						ct, err := pk.ParseCiphertext(body[i*width : (i+1)*width])
						if err != nil {
							return nil, err
						}
						parsed = append(parsed, ct)
					}
					term, err := pk.FoldScalarMul(parsed, exps[lo:hi], 1)
					if err != nil {
						return nil, err
					}
					if acc, err = add(acc, term); err != nil {
						return nil, err
					}
				}
				return acc.Value(), nil
			})
			if err != nil {
				return nil, err
			}
		}
		err = measure(FoldRow{Variant: "session-acc"}, func() (*big.Int, error) {
			f := pk.NewFold(n, 1)
			for i := 0; i < n; i++ {
				if err := f.Add(body[i*width:(i+1)*width], exps[i:i+1]); err != nil {
					return nil, err
				}
			}
			return f.Sums()[0].Value(), nil
		})
		if err != nil {
			return nil, err
		}

		c.progressf("fold n=%d naive=%v session-acc=%v\n", n,
			rows[first].Time.Round(time.Millisecond), rows[len(rows)-1].Time.Round(time.Millisecond))
	}
	return rows, nil
}
