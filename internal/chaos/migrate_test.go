package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/colstore"
	"privstats/internal/database"
	"privstats/internal/paillier"
	"privstats/internal/testutil"
	"privstats/internal/wire"
)

// migrationKillPoints enumerates where the chaos strikes during a live
// reshard: a freshly provisioned backend before the cut-over, a new backend
// right after the cut-over, or an old backend still draining pinned
// sessions.
const (
	killNewPreCutover = iota
	killNewPostCutover
	killOldPostCutover
	migrationKillPoints
)

// classifiedQueryErr reports whether a failed query died cleanly: a coded
// peer error (e.g. [shard-unavailable] from the aggregator) or a classified
// retry exhaustion — never a silent wrong answer or an unexplained fault.
func classifiedQueryErr(err error) bool {
	if wire.ErrorCodeOf(err) != wire.CodeNone {
		return true
	}
	var ex *cluster.ExhaustedError
	return errors.As(err, &ex)
}

// TestRestartChaosMigration is the resharding half of the chaos suite: a
// real sumproxy over two real sumserver -table-dir backends takes
// continuous queries while the test migrates the table to four shard
// directories (colstore.ExtractShard), spawns new backends, and cuts over
// via POST /reshard — and, at a seeded point, SIGKILLs a random backend
// mid-migration and restarts it on the same directory. Every query across
// the whole run must be exact against the plaintext oracle or cleanly
// classified, and the cluster must converge back to exact answers.
func TestRestartChaosMigration(t *testing.T) {
	serverBin := testutil.BuildBinary(t, "sumserver")
	proxyBin := testutil.BuildBinary(t, "sumproxy")

	const rows, blockRows = 240, 32
	table, err := database.Generate(rows, database.DistUniform, 461)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.GenerateSelection(rows, 100, database.PatternRandom, 462)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	sk := paillier.SchemeKey{SK: chaosKey(t)}

	// One master store on disk; halves extracted once (they are read-only
	// and every run serves them verbatim), quarters re-extracted per run so
	// the block-by-block migration copy runs under chaos every time.
	masterDir := t.TempDir()
	if s, err := colstore.BuildFrom(table, masterDir, colstore.Options{BlockRows: blockRows}); err != nil {
		t.Fatal(err)
	} else if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	master, err := colstore.Open(masterDir, colstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	halves := [][2]int{{0, 120}, {120, 240}}
	quarters := [][2]int{{0, 60}, {60, 120}, {120, 180}, {180, 240}}
	halfDirs := make([]string, len(halves))
	scratch := t.TempDir()
	for i, r := range halves {
		halfDirs[i] = filepath.Join(scratch, fmt.Sprintf("half%d", i))
		if err := colstore.ExtractShard(master, halfDirs[i], r[0], r[1], colstore.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	startStore := func(t *testing.T, dir string) (*testutil.Daemon, string) {
		d := testutil.StartDaemon(t, serverBin, "-listen", "127.0.0.1:0", "-table-dir", dir)
		return d, d.WaitLog(`serving \d+ rows on (\S+) \(`, 15*time.Second)
	}
	mapSpec := func(ranges [][2]int, addrs []string) string {
		parts := make([]string, len(ranges))
		for i, r := range ranges {
			parts[i] = fmt.Sprintf("%d-%d=%s", r[0], r[1], addrs[i])
		}
		return strings.Join(parts, ";")
	}
	reshard := func(t *testing.T, statsAddr, spec string) uint64 {
		t.Helper()
		resp, err := http.Post("http://"+statsAddr+"/reshard", "text/plain", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("POST /reshard: %v", err)
		}
		defer resp.Body.Close()
		var doc struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /reshard: status %d, decode err %v", resp.StatusCode, err)
		}
		return doc.Epoch
	}

	runs := chaosRuns(t)
	for run := 0; run < runs; run++ {
		t.Run(fmt.Sprintf("seed%d", run), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(3000 + run)))

			oldD := make([]*testutil.Daemon, len(halves))
			oldAddrs := make([]string, len(halves))
			for i := range halves {
				oldD[i], oldAddrs[i] = startStore(t, halfDirs[i])
			}
			proxy := testutil.StartDaemon(t, proxyBin,
				"-listen", "127.0.0.1:0",
				"-stats-addr", "127.0.0.1:0",
				"-shards", mapSpec(halves, oldAddrs),
				"-retries", "2",
				"-backoff", "5ms",
				"-probe-after", "50ms",
			)
			proxyAddr := proxy.WaitLog(`aggregating \d+ rows over \d+ shards on (\S+)`, 15*time.Second)
			statsAddr := proxy.WaitLog(`stats endpoint on http://(\S+)/stats`, 15*time.Second)

			cl := cluster.NewClient(cluster.ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond, ProbeAfter: 50 * time.Millisecond})
			query := func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				got, err := cl.Query(ctx, []string{proxyAddr}, sk, sel, 16, nil)
				if err != nil {
					return err
				}
				if got.Cmp(want) != 0 {
					t.Errorf("WRONG RESULT: sum = %v, oracle %v", got, want)
				}
				return nil
			}

			// Continuous load across the whole migration. Failures are
			// tolerated only if cleanly classified.
			var loadMu sync.Mutex
			exact, coded := 0, 0
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := query()
					loadMu.Lock()
					if err == nil {
						exact++
					} else if classifiedQueryErr(err) {
						coded++
					} else {
						t.Errorf("unclassified query failure: %v", err)
					}
					loadMu.Unlock()
				}
			}()

			// Baseline on epoch 1 must be exact.
			if err := query(); err != nil {
				t.Fatalf("pre-migration query: %v", err)
			}

			// The migration copy: quarters extracted block-by-block (CRC
			// verified inside ExtractShard) onto fresh directories.
			runDir := t.TempDir()
			quarterDirs := make([]string, len(quarters))
			for i, r := range quarters {
				quarterDirs[i] = filepath.Join(runDir, fmt.Sprintf("q%d", i))
				if err := colstore.ExtractShard(master, quarterDirs[i], r[0], r[1], colstore.Options{}); err != nil {
					t.Fatalf("extracting quarter %d: %v", i, err)
				}
			}
			newD := make([]*testutil.Daemon, len(quarters))
			newAddrs := make([]string, len(quarters))
			for i := range quarters {
				newD[i], newAddrs[i] = startStore(t, quarterDirs[i])
			}

			killPoint := rng.Intn(migrationKillPoints)
			victim := rng.Intn(len(quarters))
			sleep := func() { time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond) }

			if killPoint == killNewPreCutover {
				// A provisioned backend crashes before the cut-over; the
				// restart reopens the same directory. The serving epoch never
				// saw it, so nothing may fail.
				sleep()
				newD[victim].Kill()
				newD[victim], newAddrs[victim] = startStore(t, quarterDirs[victim])
			}

			if epoch := reshard(t, statsAddr, mapSpec(quarters, newAddrs)); epoch != 2 {
				t.Fatalf("cut-over installed epoch %d, want 2", epoch)
			}

			switch killPoint {
			case killNewPostCutover:
				// A serving new backend crashes right after the cut-over.
				// Queries may fail classified until the operator restarts it
				// on the same directory and re-posts its address.
				sleep()
				newD[victim].Kill()
				sleep()
				newD[victim], newAddrs[victim] = startStore(t, quarterDirs[victim])
				if epoch := reshard(t, statsAddr, mapSpec(quarters, newAddrs)); epoch != 3 {
					t.Fatalf("repair cut-over installed epoch %d, want 3", epoch)
				}
			case killOldPostCutover:
				// An old backend dies while epoch-1 sessions may still be
				// draining against it — new-epoch queries must not notice.
				sleep()
				victim = rng.Intn(len(halves))
				oldD[victim].Kill()
				sleep()
			}

			// Convergence: with the final map posted and every serving
			// backend alive, queries must go back to exact — and stay there.
			logOnFailure(t, proxy)
			testutil.Eventually(t, 60*time.Second, "the cluster to converge to exact answers", func() bool {
				err := query()
				if err != nil && !classifiedQueryErr(err) {
					t.Fatalf("unclassified failure during convergence: %v", err)
				}
				return err == nil
			})
			for i := 0; i < 2; i++ {
				if err := query(); err != nil {
					t.Fatalf("post-convergence query %d: %v", i, err)
				}
			}

			close(stop)
			wg.Wait()
			loadMu.Lock()
			defer loadMu.Unlock()
			if exact == 0 {
				t.Error("background load completed zero exact queries")
			}
			t.Logf("kill_point=%d victim=%d exact=%d classified=%d", killPoint, victim, exact, coded)
		})
	}
}
