// Package durable is the crash-safety toolkit shared by the daemons: a
// small append-only, CRC-framed write-ahead journal for state that must
// survive a SIGKILL, and an atomic-rename snapshot helper for state that is
// cheap to rewrite whole. It follows the same envelope discipline as the
// PSBS store files in internal/paillier (magic, version, CRC-32 IEEE):
// a reader can always tell a file that was never ours from one of ours that
// a crash tore mid-write.
//
// Journal durability contract: a record handed to Append has been written
// and fsynced when Append returns, so anything acknowledged to a client
// after its Append survives a process kill. Replay tolerates a torn tail —
// the partial record a crash mid-Append leaves behind — by stopping at the
// last intact record; it never invents, truncates-to-garbage, or resurrects
// half a record.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	// journalMagic opens every journal file, versioned separately from the
	// record framing so the format can evolve.
	journalMagic   = "PSWJ"
	journalVersion = 1

	// headerLen is the file header: magic + version.
	headerLen = 4 + 4

	// frameOverhead is the per-record framing cost: type byte, payload
	// length, CRC-32 trailer.
	frameOverhead = 1 + 4 + 4

	// MaxRecord bounds one record's payload, rejecting absurd lengths from a
	// corrupt frame before any allocation (mirrors jobs.MaxSpecBytes).
	MaxRecord = 16 << 20
)

// ErrCorruptJournal is returned when a journal file's header fails
// validation — the file is not (or is no longer) a journal of ours. Torn or
// corrupt record tails are NOT this error; they are tolerated and reported
// via Stats.
var ErrCorruptJournal = errors.New("durable: corrupt journal")

// Stats summarizes one replay: how much was recovered and whether the file
// ended in a torn or corrupt tail that was dropped.
type Stats struct {
	// Records is the number of intact records replayed.
	Records int
	// Bytes is the byte offset of the end of the last intact record
	// (including the file header) — the truncation point after a torn tail.
	Bytes int64
	// TornTail is true when trailing bytes after the last intact record were
	// dropped: a crash mid-append, a truncated copy, or tail rot.
	TornTail bool
}

// Journal is an append-only record log. Append is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Open opens (creating if absent) the journal at path, replays every intact
// existing record through fn, truncates any torn tail, and positions the
// file for appending. fn may be nil to skip replay consumption; a non-nil
// fn error aborts the open.
//
// A file that exists but does not start with a valid journal header is
// rejected with ErrCorruptJournal rather than silently overwritten: the
// operator pointed the daemon at something that is not its journal.
func Open(path string, fn func(typ byte, payload []byte) error) (*Journal, Stats, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("durable: opening journal %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, Stats{}, fmt.Errorf("durable: stat %s: %w", path, err)
	}

	var stats Stats
	if info.Size() == 0 {
		// Fresh journal: write the header now so a crash before the first
		// record still leaves a well-formed (empty) journal behind.
		hdr := make([]byte, 0, headerLen)
		hdr = append(hdr, journalMagic...)
		hdr = binary.BigEndian.AppendUint32(hdr, journalVersion)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, Stats{}, fmt.Errorf("durable: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Stats{}, fmt.Errorf("durable: syncing journal header: %w", err)
		}
		stats.Bytes = headerLen
	} else {
		stats, err = Replay(f, fn)
		if err != nil {
			f.Close()
			return nil, stats, err
		}
		if stats.TornTail {
			// Drop the tail so new appends continue from the last intact
			// record instead of burying it under unreadable garbage.
			if err := f.Truncate(stats.Bytes); err != nil {
				f.Close()
				return nil, stats, fmt.Errorf("durable: truncating torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, stats, fmt.Errorf("durable: syncing truncated %s: %w", path, err)
			}
		}
		if _, err := f.Seek(stats.Bytes, io.SeekStart); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("durable: seeking to journal end: %w", err)
		}
	}
	return &Journal{f: f, path: path}, stats, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append frames one record (type, length, payload, CRC-32 over all three)
// and fsyncs it: when Append returns nil, the record survives a kill.
func (j *Journal) Append(typ byte, payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("durable: record payload %d exceeds %d-byte cap", len(payload), MaxRecord)
	}
	buf := make([]byte, 0, frameOverhead+len(payload))
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[:len(buf)]))

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("durable: append to closed journal")
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("durable: appending record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: syncing record: %w", err)
	}
	return nil
}

// Close closes the journal file. Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Replay reads a journal stream: header, then records until EOF or the
// first frame that fails validation (short read, absurd length, CRC
// mismatch). Everything after the first bad frame is unreachable — the
// framing is lost — so replay stops there and reports TornTail; it never
// panics and never delivers a partial record to fn.
//
// A bad HEADER is different: that file was never a journal of ours (or rot
// reached the very front), and replaying nothing from it silently would
// masquerade as an empty store, so it is an error.
func Replay(r io.Reader, fn func(typ byte, payload []byte) error) (Stats, error) {
	var stats Stats
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return stats, fmt.Errorf("%w: header: %v", ErrCorruptJournal, err)
	}
	if string(hdr[:4]) != journalMagic {
		return stats, fmt.Errorf("%w: bad magic %q", ErrCorruptJournal, hdr[:4])
	}
	if v := binary.BigEndian.Uint32(hdr[4:]); v != journalVersion {
		return stats, fmt.Errorf("%w: unsupported version %d", ErrCorruptJournal, v)
	}
	stats.Bytes = headerLen

	frame := make([]byte, 1+4)
	for {
		if _, err := io.ReadFull(r, frame[:1]); err != nil {
			if errors.Is(err, io.EOF) {
				return stats, nil // clean end: no tail at all
			}
			stats.TornTail = true
			return stats, nil
		}
		if _, err := io.ReadFull(r, frame[1:]); err != nil {
			stats.TornTail = true
			return stats, nil
		}
		length := binary.BigEndian.Uint32(frame[1:])
		if length > MaxRecord {
			stats.TornTail = true
			return stats, nil
		}
		body := make([]byte, length+4) // payload + CRC trailer
		if _, err := io.ReadFull(r, body); err != nil {
			stats.TornTail = true
			return stats, nil
		}
		crc := crc32.NewIEEE()
		crc.Write(frame)
		crc.Write(body[:length])
		if binary.BigEndian.Uint32(body[length:]) != crc.Sum32() {
			stats.TornTail = true
			return stats, nil
		}
		if fn != nil {
			if err := fn(frame[0], body[:length]); err != nil {
				return stats, err
			}
		}
		stats.Records++
		stats.Bytes += int64(frameOverhead) + int64(length)
	}
}

// Rewrite atomically replaces the journal at path with the records write
// appends — the compaction half of a replay-then-compact startup: rebuild
// in-memory state from the old journal, Rewrite the retained subset, then
// Open the result for appending. A crash anywhere leaves either the old
// complete journal or the new complete journal, never a mix.
func Rewrite(path string, write func(j *Journal) error) error {
	tmp := path + ".tmp"
	os.Remove(tmp) // a previous crashed Rewrite's leftovers
	j, _, err := Open(tmp, nil)
	if err != nil {
		return err
	}
	if err := write(j); err != nil {
		j.Close()
		os.Remove(tmp)
		return err
	}
	if err := j.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: closing rewritten journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: renaming rewritten journal into place: %w", err)
	}
	return syncDir(path)
}
