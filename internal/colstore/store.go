package colstore

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"privstats/internal/database"
)

// Default geometry. 8192 rows per block is 32 KiB of payload — large enough
// that sequential scans run at disk bandwidth, small enough that a point
// read wastes little, and 64 cached blocks bound the resident decoded set
// to ~2 MiB regardless of table size.
const (
	DefaultBlockRows   = 8192
	DefaultCacheBlocks = 64
)

// Options configures Create and Open. The zero value means defaults.
type Options struct {
	// BlockRows fixes the rows-per-block geometry at Create; Open reads it
	// from the header and ignores this field.
	BlockRows int
	// BaseRow is the global row index of local row 0, stamped into the
	// header at Create (shard directories carry their own offset).
	BaseRow uint64
	// CacheBlocks caps the decoded-block LRU. 0 means DefaultCacheBlocks;
	// negative disables caching.
	CacheBlocks int
	// ReadOnly opens the store for serving only: Append/Flush/Sync are
	// rejected and a torn tail is tolerated in place rather than truncated.
	ReadOnly bool
}

func (o Options) cacheBlocks() int {
	switch {
	case o.CacheBlocks == 0:
		return DefaultCacheBlocks
	case o.CacheBlocks < 0:
		return 0
	default:
		return o.CacheBlocks
	}
}

// Store is one on-disk column of 32-bit rows. Reads (Value, Column views,
// Scan) are safe concurrently with each other and with a single appender:
// full blocks are immutable on disk, and the mutable tail block is served
// from memory. Rows become visible once their block is written — a full
// block immediately on Append, the partial tail on Flush/Sync/Close.
type Store struct {
	f    *os.File
	path string
	h    Header
	slot int // slot size in bytes for this geometry

	mu         sync.RWMutex
	fullBlocks int      // complete, immutable blocks on disk
	tail       []uint32 // rows of the trailing partial block
	tailOnDisk int      // prefix of tail already written (and thus visible)
	writable   bool
	closed     bool
	torn       bool // Open found and dropped/ignored a torn tail

	cacheMu sync.Mutex
	cache   *blockCache
}

// Create initialises a new table directory: the directory is created if
// missing, the data file must not already exist.
func Create(dir string, opts Options) (*Store, error) {
	br := opts.BlockRows
	if br == 0 {
		br = DefaultBlockRows
	}
	if br < 0 || br > MaxBlockRows {
		return nil, fmt.Errorf("colstore: block rows %d out of range", br)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, TableFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("colstore: creating %s: %w", path, err)
	}
	h := Header{BlockRows: br, BaseRow: opts.BaseRow}
	if _, err := f.Write(EncodeHeader(h)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("colstore: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("colstore: syncing header: %w", err)
	}
	syncDir(path)
	return &Store{
		f:        f,
		path:     path,
		h:        h,
		slot:     slotSize(br),
		writable: true,
		cache:    newBlockCache(opts.cacheBlocks()),
	}, nil
}

// Open loads an existing table directory. The crash model mirrors the
// durable journal: trailing bytes that do not form a CRC-valid slot are a
// torn tail — dropped (and truncated away when writable) — but anything
// structurally wrong before the tail, or a foreign file, is a hard
// ErrCorruptStore.
func Open(dir string, opts Options) (*Store, error) {
	path := filepath.Join(dir, TableFile)
	flag := os.O_RDWR
	if opts.ReadOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, fmt.Errorf("colstore: opening %s: %w", path, err)
	}
	s, err := open(f, path, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func open(f *os.File, path string, opts Options) (*Store, error) {
	hbuf := make([]byte, headerSize)
	if _, err := f.ReadAt(hbuf, 0); err != nil {
		return nil, fmt.Errorf("%w: reading header of %s: %v", ErrCorruptStore, path, err)
	}
	h, err := ParseHeader(hbuf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("colstore: stat %s: %w", path, err)
	}
	slot := slotSize(h.BlockRows)
	body := fi.Size() - headerSize
	nSlots := int(body / int64(slot))
	torn := body%int64(slot) != 0

	readSlot := func(i int) ([]uint32, error) {
		buf := make([]byte, slot)
		if _, err := f.ReadAt(buf, headerSize+int64(i)*int64(slot)); err != nil {
			return nil, fmt.Errorf("%w: reading slot %d: %v", ErrCorruptStore, i, err)
		}
		return ReadBlock(buf, h.BlockRows, uint64(i))
	}

	var last []uint32
	if nSlots > 0 {
		last, err = readSlot(nSlots - 1)
		if err != nil {
			// A crash can tear at most the slot being written — the tail.
			// Drop it; the slot before it must be intact or the file is
			// corrupt beyond the crash model.
			torn = true
			nSlots--
			last = nil
			if nSlots > 0 {
				last, err = readSlot(nSlots - 1)
				if err != nil {
					return nil, fmt.Errorf("%s: slot %d: %w", path, nSlots-1, err)
				}
			}
		}
	}

	s := &Store{
		f:        f,
		path:     path,
		h:        h,
		slot:     slot,
		writable: !opts.ReadOnly,
		torn:     torn,
		cache:    newBlockCache(opts.cacheBlocks()),
	}
	switch {
	case nSlots == 0:
	case len(last) == h.BlockRows:
		s.fullBlocks = nSlots
	default:
		s.fullBlocks = nSlots - 1
		s.tail = last
		s.tailOnDisk = len(last)
	}
	if torn && s.writable {
		if err := f.Truncate(headerSize + int64(nSlots)*int64(slot)); err != nil {
			return nil, fmt.Errorf("colstore: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("colstore: syncing %s: %w", path, err)
		}
	}
	return s, nil
}

// syncDir fsyncs path's parent so a freshly created file is itself durable.
// Refusal (some network mounts) is tolerated, as in the durable package.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// BlockRows returns the store's rows-per-block geometry.
func (s *Store) BlockRows() int { return s.h.BlockRows }

// BaseRow returns the global row index of local row 0.
func (s *Store) BaseRow() uint64 { return s.h.BaseRow }

// Len returns the number of visible rows: every row whose block has been
// written to the file. Rows appended but not yet flushed are excluded.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fullBlocks*s.h.BlockRows + s.tailOnDisk
}

// Append adds rows. Each time the in-memory tail fills a whole block the
// block is written out and becomes visible to readers; call Flush or Sync
// to make a trailing partial block visible too. Append never blocks behind
// readers of full blocks.
func (s *Store) Append(vals []uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("colstore: %s is closed", s.path)
	}
	if !s.writable {
		return fmt.Errorf("colstore: %s is read-only", s.path)
	}
	s.tail = append(s.tail, vals...)
	br := s.h.BlockRows
	for len(s.tail) >= br {
		if err := s.writeSlot(s.fullBlocks, s.tail[:br]); err != nil {
			return err
		}
		s.fullBlocks++
		s.tail = append(make([]uint32, 0, br), s.tail[br:]...)
		s.tailOnDisk = 0
	}
	return nil
}

// Flush writes the trailing partial block (if any rows are pending), making
// every appended row visible to readers. Durability needs Sync.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.closed {
		return fmt.Errorf("colstore: %s is closed", s.path)
	}
	if !s.writable {
		return fmt.Errorf("colstore: %s is read-only", s.path)
	}
	if len(s.tail) == 0 || s.tailOnDisk == len(s.tail) {
		return nil
	}
	if err := s.writeSlot(s.fullBlocks, s.tail); err != nil {
		return err
	}
	s.tailOnDisk = len(s.tail)
	return nil
}

// Sync flushes the tail and fsyncs the file: everything visible is durable.
// A later crash while the tail block grows can lose at most that one
// partial block — full blocks are never rewritten.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("colstore: syncing %s: %w", s.path, err)
	}
	return nil
}

// Close flushes and syncs (when writable) and releases the file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.writable {
		if ferr := s.flushLocked(); ferr != nil {
			err = ferr
		} else if serr := s.f.Sync(); serr != nil {
			err = fmt.Errorf("colstore: syncing %s: %w", s.path, serr)
		}
	}
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("colstore: closing %s: %w", s.path, cerr)
	}
	s.closed = true
	return err
}

// writeSlot encodes and pwrites one slot. Callers hold s.mu.
func (s *Store) writeSlot(index int, vals []uint32) error {
	buf, err := EncodeBlock(uint64(index), s.h.BlockRows, vals)
	if err != nil {
		return err
	}
	if _, err := s.f.WriteAt(buf, headerSize+int64(index)*int64(s.slot)); err != nil {
		return fmt.Errorf("colstore: writing block %d of %s: %w", index, s.path, err)
	}
	return nil
}

// Value returns visible row i.
func (s *Store) Value(i int) (uint32, error) {
	s.mu.RLock()
	fb, tod := s.fullBlocks, s.tailOnDisk
	br := s.h.BlockRows
	if i < 0 || i >= fb*br+tod {
		s.mu.RUnlock()
		return 0, fmt.Errorf("colstore: row %d out of range [0,%d)", i, fb*br+tod)
	}
	b := i / br
	if b == fb {
		v := s.tail[i-fb*br]
		s.mu.RUnlock()
		return v, nil
	}
	s.mu.RUnlock()
	vals, err := s.block(b)
	if err != nil {
		return 0, err
	}
	return vals[i-b*br], nil
}

// fill sets dst[k] to visible row lo+k, squared if square is set, a block at
// a time: one cache lookup, and one lock, per full block the rows span.
func (s *Store) fill(dst []uint64, lo int, square bool) error {
	s.mu.RLock()
	fb, tod := s.fullBlocks, s.tailOnDisk
	br := s.h.BlockRows
	end := lo + len(dst)
	if n := fb*br + tod; lo < 0 || lo > n || len(dst) > n-lo {
		s.mu.RUnlock()
		return fmt.Errorf("colstore: rows [%d,%d) out of range [0,%d)", lo, end, n)
	}
	if tailStart := fb * br; end > tailStart {
		// The tail block's rows are read under the lock that keeps them.
		from := max(lo, tailStart)
		widen(dst[from-lo:], s.tail[from-tailStart:end-tailStart], square)
		end = from
	}
	s.mu.RUnlock()
	for i := lo; i < end; {
		b := i / br
		vals, err := s.block(b)
		if err != nil {
			return err
		}
		stop := min(end, (b+1)*br)
		widen(dst[i-lo:stop-lo], vals[i-b*br:stop-b*br], square)
		i = stop
	}
	return nil
}

// widen sets dst[k] to vals[k], or to its square if square is set.
func widen(dst []uint64, vals []uint32, square bool) {
	for k, v := range vals {
		u := uint64(v)
		if square {
			u *= u
		}
		dst[k] = u
	}
}

// block returns the decoded rows of full block b, via the LRU cache.
func (s *Store) block(b int) ([]uint32, error) {
	s.cacheMu.Lock()
	vals, ok := s.cache.get(b)
	s.cacheMu.Unlock()
	if ok {
		return vals, nil
	}
	vals, err := s.readFullBlock(b, make([]byte, s.slot))
	if err != nil {
		return nil, err
	}
	s.cacheMu.Lock()
	s.cache.put(b, vals)
	s.cacheMu.Unlock()
	return vals, nil
}

// readFullBlock preads and decodes full block b into buf, which must be one
// slot long. Full blocks are immutable, so no lock is needed.
func (s *Store) readFullBlock(b int, buf []byte) ([]uint32, error) {
	if _, err := s.f.ReadAt(buf, headerSize+int64(b)*int64(s.slot)); err != nil {
		return nil, fmt.Errorf("%w: reading block %d of %s: %v", ErrCorruptStore, b, s.path, err)
	}
	vals, err := ReadBlock(buf, s.h.BlockRows, uint64(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.path, err)
	}
	if len(vals) != s.h.BlockRows {
		return nil, fmt.Errorf("%w: interior block %d of %s holds %d rows of %d",
			ErrCorruptStore, b, s.path, len(vals), s.h.BlockRows)
	}
	return vals, nil
}

// column adapts rows [lo, lo+n) of a store to database.Column. At and Fill
// panic on I/O errors or on-disk corruption — the server runtime's
// per-session panic isolation turns that into one failed session, not a
// crashed process.
type column struct {
	s      *Store
	lo, n  int
	square bool
}

func (c column) Len() int { return c.n }

func (c column) At(i int) uint64 {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("colstore: column row %d out of range [0,%d)", i, c.n))
	}
	v, err := c.s.Value(c.lo + i)
	if err != nil {
		panic(err)
	}
	u := uint64(v)
	if c.square {
		return u * u
	}
	return u
}

func (c column) Fill(dst []uint64, first int) {
	if first < 0 || first > c.n || len(dst) > c.n-first {
		panic(fmt.Sprintf("colstore: column rows [%d,%d) out of range [0,%d)", first, first+len(dst), c.n))
	}
	if err := c.s.fill(dst, c.lo+first, c.square); err != nil {
		panic(err)
	}
}

// Column returns the value column over the rows visible now. Later appends
// do not grow an already-issued column, so a session folds against a
// consistent snapshot length.
func (s *Store) Column() database.Column { return column{s: s, n: s.Len()} }

// SquareColumn returns the column of squared values. Squares are computed
// on the fly from the cached 32-bit blocks — an on-disk squares column
// would double the file for one multiply per access.
func (s *Store) SquareColumn() database.Column { return column{s: s, n: s.Len(), square: true} }

// View is a fixed sub-range of a store, itself a database.Source — the
// disk-backed analogue of Table.Shard for serving one shard of a larger
// table out of a full-table directory.
type View struct {
	s      *Store
	lo, hi int
}

// Range returns the view of visible rows [lo, hi).
func (s *Store) Range(lo, hi int) (*View, error) {
	if n := s.Len(); lo < 0 || hi < lo || hi > n {
		return nil, fmt.Errorf("colstore: bad range [%d,%d) of %d rows", lo, hi, n)
	}
	return &View{s: s, lo: lo, hi: hi}, nil
}

// Len returns the view's row count.
func (v *View) Len() int { return v.hi - v.lo }

// Column returns the view's value column.
func (v *View) Column() database.Column { return column{s: v.s, lo: v.lo, n: v.hi - v.lo} }

// SquareColumn returns the view's squared-value column.
func (v *View) SquareColumn() database.Column {
	return column{s: v.s, lo: v.lo, n: v.hi - v.lo, square: true}
}

// Scan streams visible rows [lo, hi) to fn in block-sized slices, reading
// the file sequentially and bypassing the LRU (a full-table scan must not
// evict a serving session's working set). fn must not retain the slice.
func (s *Store) Scan(lo, hi int, fn func(vals []uint32) error) error {
	s.mu.RLock()
	fb, tod := s.fullBlocks, s.tailOnDisk
	br := s.h.BlockRows
	var tail []uint32
	if tod > 0 {
		tail = append([]uint32(nil), s.tail[:tod]...)
	}
	s.mu.RUnlock()
	n := fb*br + tod
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("colstore: bad scan range [%d,%d) of %d rows", lo, hi, n)
	}
	buf := make([]byte, s.slot)
	for b := lo / br; b*br < hi; b++ {
		var vals []uint32
		if b < fb {
			var err error
			if vals, err = s.readFullBlock(b, buf); err != nil {
				return err
			}
		} else {
			vals = tail
		}
		from, to := 0, len(vals)
		if lo > b*br {
			from = lo - b*br
		}
		if hi < b*br+len(vals) {
			to = hi - b*br
		}
		if from < to {
			if err := fn(vals[from:to]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Checksum returns the CRC-32 (IEEE) of rows [lo, hi) as a big-endian byte
// stream — a geometry-independent fingerprint of the logical row sequence,
// used to verify migrated shard copies against their source.
func (s *Store) Checksum(lo, hi int) (uint32, error) {
	var crc uint32
	var be [4]byte
	err := s.Scan(lo, hi, func(vals []uint32) error {
		for _, v := range vals {
			be[0], be[1], be[2], be[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
			crc = crc32.Update(crc, crc32.IEEETable, be[:])
		}
		return nil
	})
	return crc, err
}

// Stats describes the store for tools and logs.
type Stats struct {
	Rows      int
	Blocks    int
	BlockRows int
	BaseRow   uint64
	TornTail  bool // Open dropped (or, read-only, ignored) a torn tail
	FileBytes int64
}

// Stats returns a snapshot of the store's shape.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blocks := s.fullBlocks
	if s.tailOnDisk > 0 {
		blocks++
	}
	return Stats{
		Rows:      s.fullBlocks*s.h.BlockRows + s.tailOnDisk,
		Blocks:    blocks,
		BlockRows: s.h.BlockRows,
		BaseRow:   s.h.BaseRow,
		TornTail:  s.torn,
		FileBytes: headerSize + int64(blocks)*int64(s.slot),
	}
}

// Verify re-reads every on-disk block and checks its frame: magic, CRC,
// index, and the all-full-but-last count invariant. It reads sequentially,
// bypassing the cache, and returns the first problem found.
func (s *Store) Verify() error {
	s.mu.RLock()
	fb, tod := s.fullBlocks, s.tailOnDisk
	s.mu.RUnlock()
	buf := make([]byte, s.slot)
	for b := 0; b < fb; b++ {
		if _, err := s.readFullBlock(b, buf); err != nil {
			return err
		}
	}
	if tod > 0 {
		if _, err := s.f.ReadAt(buf, headerSize+int64(fb)*int64(s.slot)); err != nil {
			return fmt.Errorf("%w: reading tail block of %s: %v", ErrCorruptStore, s.path, err)
		}
		vals, err := ReadBlock(buf, s.h.BlockRows, uint64(fb))
		if err != nil {
			return fmt.Errorf("%s: %w", s.path, err)
		}
		if len(vals) < tod {
			return fmt.Errorf("%w: tail block of %s holds %d rows, want >= %d",
				ErrCorruptStore, s.path, len(vals), tod)
		}
	}
	return nil
}
