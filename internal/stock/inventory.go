package stock

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privstats/internal/durable"
	"privstats/internal/metrics"
	"privstats/internal/paillier"
)

// Defaults for zero InventoryConfig fields.
const (
	// DefaultMaxKeys caps dynamically admitted public keys. Stock is
	// public-key-only material, so admitting a key costs privacy nothing —
	// the cap only bounds memory and generator work.
	DefaultMaxKeys = 16
	// DefaultRefillEvery is the idle poll interval of a key's refiller; the
	// serving path additionally wakes it immediately after every batch.
	DefaultRefillEvery = 250 * time.Millisecond
)

// ErrInventoryFull is returned when admitting one more key would exceed the
// configured cap.
var ErrInventoryFull = errors.New("stock: inventory at key capacity")

// Targets are the depths a key's refiller keeps each inventory topped up to.
type Targets struct {
	Zeros, Ones int
}

func (t Targets) validate() error {
	if t.Zeros < 0 || t.Ones < 0 {
		return fmt.Errorf("stock: negative targets %+v", t)
	}
	if t.Zeros == 0 && t.Ones == 0 {
		return errors.New("stock: all targets zero — the daemon would serve nothing")
	}
	return nil
}

// InventoryConfig tunes an Inventory.
type InventoryConfig struct {
	// Targets are the per-key refill depths.
	Targets Targets
	// MaxKeys caps dynamically admitted keys; zero means DefaultMaxKeys.
	MaxKeys int
	// Rate, when positive, bounds generation across all refillers to this
	// many items per second — the daemon is a shared service, and unbounded
	// modular exponentiation would starve the serving goroutines.
	Rate int
	// RefillEvery is the idle poll interval of each refiller; zero means
	// DefaultRefillEvery.
	RefillEvery time.Duration
	// StateDir, when non-empty, persists each key's stock to
	// <dir>/<fp16>.bits (plus the public key itself to <fp16>.pk) on Close
	// and on periodic snapshots, and restores them on the key's next
	// admission (or at startup via RestoreAll). Restores are
	// fingerprint-bound: files written for a rotated key fail the
	// storepersist key check and are discarded.
	StateDir string
	// SnapshotEvery, when positive (and StateDir is set), writes a
	// crash-safe snapshot of every inventory at this interval, so a SIGKILL
	// loses at most one interval of generated stock. Zero persists only on
	// Close.
	SnapshotEvery time.Duration
	// SnapshotDelta, when positive, additionally triggers a snapshot as
	// soon as this many items have been served since the last one — a
	// hard-drained daemon persists its (lower) depths promptly instead of
	// restoring a stale, optimistic picture after a crash.
	SnapshotDelta int
	// Metrics receives the daemon's counters; nil allocates a fresh set.
	Metrics *metrics.StockMetrics
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// keyStock is one public key's inventories plus its refiller plumbing.
type keyStock struct {
	fp    [32]byte
	label string // fp's first 16 hex chars, the metrics label
	pk    *paillier.PublicKey
	bits  *paillier.BitStore
	km    *metrics.KeyStockMetrics
	wake  chan struct{} // serving path → refiller, capacity 1
}

// Inventory is the daemon's state: per-key stock kept at target depths by
// background refillers. Safe for concurrent use by many serving sessions.
type Inventory struct {
	cfg InventoryConfig
	m   *metrics.StockMetrics

	mu   sync.Mutex
	keys map[[32]byte]*keyStock

	limiter *rateLimiter

	// restoredBits/restoredStale accumulate restore outcomes (under mu) for
	// the startup recovery summary.
	restoredBits  int
	restoredStale int

	drained  atomic.Int64  // items served since the last snapshot
	snapWake chan struct{} // serving path → snapshotter, capacity 1

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	logf   func(format string, args ...any)
}

// NewInventory validates cfg and returns an empty inventory. Keys are
// admitted on first contact (Admit); each admission starts a refiller
// goroutine that runs until Close.
func NewInventory(cfg InventoryConfig) (*Inventory, error) {
	if err := cfg.Targets.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxKeys < 0 || cfg.Rate < 0 || cfg.RefillEvery < 0 {
		return nil, errors.New("stock: negative MaxKeys/Rate/RefillEvery")
	}
	if cfg.SnapshotEvery < 0 || cfg.SnapshotDelta < 0 {
		return nil, errors.New("stock: negative SnapshotEvery/SnapshotDelta")
	}
	if cfg.SnapshotEvery > 0 && cfg.StateDir == "" {
		return nil, errors.New("stock: SnapshotEvery needs a StateDir to snapshot into")
	}
	if cfg.MaxKeys == 0 {
		cfg.MaxKeys = DefaultMaxKeys
	}
	if cfg.RefillEvery == 0 {
		cfg.RefillEvery = DefaultRefillEvery
	}
	m := cfg.Metrics
	if m == nil {
		m = &metrics.StockMetrics{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	i := &Inventory{
		cfg:      cfg,
		m:        m,
		keys:     make(map[[32]byte]*keyStock),
		limiter:  newRateLimiter(cfg.Rate),
		snapWake: make(chan struct{}, 1),
		ctx:      ctx,
		cancel:   cancel,
		logf:     logf,
	}
	if cfg.SnapshotEvery > 0 {
		i.wg.Add(1)
		go i.snapshotLoop()
	}
	return i, nil
}

// Metrics returns the inventory's metrics set.
func (i *Inventory) Metrics() *metrics.StockMetrics { return i.m }

// Admit returns the inventory for pk, creating it (and starting its
// refiller) on first contact. A new key beyond the cap returns
// ErrInventoryFull. When a state directory is configured, a fresh admission
// first tries to restore persisted stock — files bound to a different
// (rotated) key fail the fingerprint check and are discarded.
func (i *Inventory) Admit(pk *paillier.PublicKey) (*keyStock, error) {
	fp, err := paillier.KeyFingerprint(pk)
	if err != nil {
		return nil, fmt.Errorf("stock: fingerprinting key: %w", err)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if k := i.keys[fp]; k != nil {
		return k, nil
	}
	if len(i.keys) >= i.cfg.MaxKeys {
		return nil, fmt.Errorf("%w (%d keys)", ErrInventoryFull, len(i.keys))
	}
	label := hex.EncodeToString(fp[:8])
	k := &keyStock{
		fp:    fp,
		label: label,
		pk:    pk,
		// The daemon preprocesses for foreign keys and never sees a private
		// key, so it cannot take the owner constructors' CRT fast path
		// (which needs the factorization of N): its fills raise r^N mod N²
		// without it, eight per ExpEach where mathx's lanes take N². See
		// DESIGN.md §16.
		bits: paillier.NewBitStore(pk),
		km:   i.m.Key(label),
		wake: make(chan struct{}, 1),
	}
	i.restore(k)
	i.keys[fp] = k
	k.noteDepths()
	i.wg.Add(1)
	go i.refillLoop(k)
	i.logf("stock: admitted key %s (%d/%d keys)", label, len(i.keys), i.cfg.MaxKeys)
	return k, nil
}

// lookup returns the already-admitted inventory for fp, or nil.
func (i *Inventory) lookup(fp [32]byte) *keyStock {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.keys[fp]
}

// Depths reports pk's current stock levels; ok is false when the key was
// never admitted. unused is always 0: it was the depth of an r^N randomizer
// stock the daemon no longer keeps, and stays so that the benchmark
// harness's four-result call compiles.
func (i *Inventory) Depths(pk *paillier.PublicKey) (zeros, ones, unused int, ok bool) {
	fp, err := paillier.KeyFingerprint(pk)
	if err != nil {
		return 0, 0, 0, false
	}
	k := i.lookup(fp)
	if k == nil {
		return 0, 0, 0, false
	}
	zeros, ones = k.bits.Depth()
	return zeros, ones, 0, true
}

// noteDepths publishes the stock levels as gauges.
func (k *keyStock) noteDepths() {
	zeros, ones := k.bits.Depth()
	k.km.DepthZeros.Set(int64(zeros))
	k.km.DepthOnes.Set(int64(ones))
}

// statePaths returns the key's persistence file paths: stock, and the
// public key itself (what lets RestoreAll re-admit the key at startup,
// before any client has said hello).
func (i *Inventory) statePaths(k *keyStock) (bits, pk string) {
	return filepath.Join(i.cfg.StateDir, k.label+".bits"),
		filepath.Join(i.cfg.StateDir, k.label+".pk")
}

// restore loads persisted stock for a freshly admitted key, best effort: a
// missing file is normal, a corrupt or key-mismatched file is logged and
// discarded (the refiller regenerates). Outcomes accumulate in the
// inventory's restored* counters (callers hold mu) for the recovery summary.
func (i *Inventory) restore(k *keyStock) {
	if i.cfg.StateDir == "" {
		return
	}
	bitsPath, _ := i.statePaths(k)
	if st, err := paillier.LoadBitStore(bitsPath, k.pk); err == nil {
		zeros := st.Take(0, maxRestore)
		ones := st.Take(1, maxRestore)
		_ = k.bits.AddStock(0, zeros)
		_ = k.bits.AddStock(1, ones)
		i.restoredBits += len(zeros) + len(ones)
		i.logf("stock: restored %d zeros, %d ones for key %s", len(zeros), len(ones), k.label)
	} else if !errors.Is(err, os.ErrNotExist) {
		i.restoredStale++
		i.logf("stock: discarding bit store %s: %v", bitsPath, err)
	}
}

// RestoreSummary reports what RestoreAll brought back at startup.
type RestoreSummary struct {
	// Keys is the number of keys re-admitted from persisted public keys.
	Keys int
	// Bits counts the stock items restored across those keys.
	Bits int
	// Stale is the number of files discarded: corrupt, key-mismatched, or
	// unparsable.
	Stale int
}

// String renders the one-line structured recovery summary the daemon logs
// at startup.
func (s RestoreSummary) String() string {
	return fmt.Sprintf("keys_restored=%d bits_loaded=%d stale_discarded=%d",
		s.Keys, s.Bits, s.Stale)
}

// RestoreAll scans the state directory for persisted public keys and
// re-admits each, restoring its stock — so a restarted daemon serves from
// its snapshots immediately instead of waiting for every client to say
// hello again. Best effort per file; only an unreadable state directory is
// an error.
func (i *Inventory) RestoreAll() (RestoreSummary, error) {
	var s RestoreSummary
	if i.cfg.StateDir == "" {
		return s, nil
	}
	entries, err := os.ReadDir(i.cfg.StateDir)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return s, fmt.Errorf("stock: reading state dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".pk") {
			continue
		}
		path := filepath.Join(i.cfg.StateDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			s.Stale++
			i.logf("stock: reading %s: %v", path, err)
			continue
		}
		pk := new(paillier.PublicKey)
		if err := pk.UnmarshalBinary(data); err != nil {
			s.Stale++
			i.logf("stock: discarding %s: %v", path, err)
			continue
		}
		if _, err := i.Admit(pk); err != nil {
			s.Stale++
			i.logf("stock: restoring key from %s: %v", path, err)
			continue
		}
		s.Keys++
	}
	i.mu.Lock()
	s.Bits = i.restoredBits
	s.Stale += i.restoredStale
	i.mu.Unlock()
	return s, nil
}

// maxRestore bounds one restore (matches the storepersist header cap).
const maxRestore = 1 << 28

// SaveAll persists every key's current stock to the state directory.
func (i *Inventory) SaveAll() error {
	if i.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(i.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("stock: creating state dir: %w", err)
	}
	i.mu.Lock()
	keys := make([]*keyStock, 0, len(i.keys))
	for _, k := range i.keys {
		keys = append(keys, k)
	}
	i.mu.Unlock()
	var first error
	for _, k := range keys {
		bitsPath, pkPath := i.statePaths(k)
		// The public key goes first: RestoreAll discovers state via .pk
		// files, so a crash mid-pass must never leave stock files behind an
		// undiscoverable key.
		if err := i.savePK(k, pkPath); err != nil && first == nil {
			first = err
		}
		if err := k.bits.SaveFile(bitsPath); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// savePK persists the key's public half so RestoreAll can re-admit it.
func (i *Inventory) savePK(k *keyStock, path string) error {
	raw, err := k.pk.MarshalBinary()
	if err != nil {
		return fmt.Errorf("stock: encoding public key %s: %w", k.label, err)
	}
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
}

// snapshotLoop periodically persists every inventory (and early, when the
// drain delta trips), so a SIGKILL loses at most one interval of stock.
func (i *Inventory) snapshotLoop() {
	defer i.wg.Done()
	timer := time.NewTimer(i.cfg.SnapshotEvery)
	defer timer.Stop()
	for {
		select {
		case <-i.ctx.Done():
			return
		case <-timer.C:
		case <-i.snapWake:
		}
		i.snapshot()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(i.cfg.SnapshotEvery)
	}
}

// snapshot runs one crash-safe SaveAll pass, resetting the drain counter.
func (i *Inventory) snapshot() {
	i.drained.Store(0)
	if err := i.SaveAll(); err != nil {
		i.m.SnapshotErrors.Inc()
		i.logf("stock: snapshot: %v", err)
		return
	}
	i.m.Snapshots.Inc()
}

// noteDrained accumulates served items toward the snapshot drain delta and
// wakes the snapshotter when it trips.
func (i *Inventory) noteDrained(n int) {
	if i.cfg.SnapshotDelta <= 0 || i.cfg.SnapshotEvery <= 0 || n <= 0 {
		return
	}
	if i.drained.Add(int64(n)) >= int64(i.cfg.SnapshotDelta) {
		select {
		case i.snapWake <- struct{}{}:
		default:
		}
	}
}

// Close stops every refiller (cancelling in-flight fills at their next chunk
// boundary), waits for them, and persists the surviving stock when a state
// directory is configured.
func (i *Inventory) Close() error {
	i.cancel()
	i.wg.Wait()
	return i.SaveAll()
}

// refillLoop keeps one key's inventories at their targets: it tops up when
// woken by the serving path and on a slow poll, until Close.
func (i *Inventory) refillLoop(k *keyStock) {
	defer i.wg.Done()
	timer := time.NewTimer(0) // first pass immediately
	defer timer.Stop()
	for {
		select {
		case <-i.ctx.Done():
			return
		case <-k.wake:
		case <-timer.C:
		}
		i.topUp(k)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(i.cfg.RefillEvery)
	}
}

// topUp runs one refill pass: generate whatever each inventory lacks, rate
// limited, publishing chunks as they land so concurrent serves see them.
func (i *Inventory) topUp(k *keyStock) {
	zeros, ones := k.bits.Depth()
	needZ, needO := i.cfg.Targets.Zeros-zeros, i.cfg.Targets.Ones-ones
	if needZ <= 0 && needO <= 0 {
		return
	}
	start := time.Now()
	defer func() {
		k.km.FillNanos.ObserveDuration(time.Since(start))
		k.noteDepths()
	}()
	// Generate in rate-limiter-sized slices so a huge deficit cannot pin the
	// limiter budget on one kind, and shutdown lands promptly.
	fill := func(need int, gen func(n int) error) {
		for need > 0 && i.ctx.Err() == nil {
			n := need
			if n > 64 {
				n = 64
			}
			if err := i.limiter.wait(i.ctx, n); err != nil {
				return
			}
			if err := gen(n); err != nil {
				if i.ctx.Err() == nil {
					k.km.RefillErrors.Inc()
					i.logf("stock: refill for key %s: %v", k.label, err)
				}
				return
			}
			k.km.GeneratedBits.Add(int64(n))
			k.noteDepths()
			need -= n
		}
	}
	fill(needZ, func(n int) error { return k.bits.FillContext(i.ctx, n, 0) })
	fill(needO, func(n int) error { return k.bits.FillContext(i.ctx, 0, n) })
}

// take serves one request from the key's stock: up to req.Count encryptions
// of the kind's bit, never blocking on generation (an empty batch tells the
// client to fall back online), and wakes the refiller.
func (i *Inventory) take(k *keyStock, req *Request) *Batch {
	width := k.pk.CiphertextSize()
	cts := k.bits.Take(uint(req.Kind), int(req.Count))
	items := make([]byte, 0, len(cts)*width)
	for _, ct := range cts {
		items = ct.AppendBytes(items)
	}
	batch := &Batch{Kind: req.Kind, Items: items, Width: width}
	k.km.ServedBits.Add(int64(len(cts)))
	i.noteDrained(len(cts))
	k.km.ServedBatches.Inc()
	k.noteDepths()
	select {
	case k.wake <- struct{}{}:
	default:
	}
	return batch
}

// rateLimiter paces generation to a global items-per-second budget with a
// simple virtual-clock scheme: each item reserves one interval on a shared
// timeline, and a caller sleeps until its reservation starts.
type rateLimiter struct {
	mu       sync.Mutex
	interval time.Duration // per item; 0 = unlimited
	next     time.Time
}

func newRateLimiter(perSecond int) *rateLimiter {
	l := &rateLimiter{}
	if perSecond > 0 {
		l.interval = time.Second / time.Duration(perSecond)
	}
	return l
}

// wait blocks until n items may be generated (or ctx is cancelled).
func (l *rateLimiter) wait(ctx context.Context, n int) error {
	if l.interval == 0 {
		return ctx.Err()
	}
	l.mu.Lock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	startAt := l.next
	l.next = l.next.Add(time.Duration(n) * l.interval)
	l.mu.Unlock()
	if d := time.Until(startAt); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return ctx.Err()
}
