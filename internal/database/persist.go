package database

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Binary persistence for tables. Format:
//
//	"PSDB"            magic
//	uint32            version
//	uint64            row count
//	rows × uint32     values (big-endian)
//	uint32            CRC-32 (IEEE) of everything above
//
// The checksum means a truncated or bit-rotted file is rejected rather than
// silently producing wrong sums.

const (
	tableMagic   = "PSDB"
	tableVersion = 1
)

// ErrCorruptTable is returned when a table file fails validation.
var ErrCorruptTable = errors.New("database: corrupt table file")

// WriteTo streams the table to w in the binary format.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	var written int64
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, tableMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, tableVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(t.values)))
	n, err := mw.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("database: writing table header: %w", err)
	}

	buf := make([]byte, 4)
	for _, v := range t.values {
		binary.BigEndian.PutUint32(buf, v)
		n, err := mw.Write(buf)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("database: writing table rows: %w", err)
		}
	}

	binary.BigEndian.PutUint32(buf, crc.Sum32())
	n, err = w.Write(buf)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("database: writing table checksum: %w", err)
	}
	return written, nil
}

// ReadTable parses a table from r, validating magic, version, and checksum.
func ReadTable(r io.Reader) (*Table, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	hdr := make([]byte, 16)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorruptTable, err)
	}
	if string(hdr[:4]) != tableMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptTable, hdr[:4])
	}
	if v := binary.BigEndian.Uint32(hdr[4:]); v != tableVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptTable, v)
	}
	count := binary.BigEndian.Uint64(hdr[8:])
	const maxRows = 1 << 31
	if count > maxRows {
		return nil, fmt.Errorf("%w: absurd row count %d", ErrCorruptTable, count)
	}

	// The count is unverified until the checksum: grow the rows as they
	// arrive, so a 16-byte header cannot claim gigabytes up front.
	values := make([]uint32, 0, min(count, 1<<16))
	buf := make([]byte, 4)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(tr, buf); err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrCorruptTable, i, err)
		}
		values = append(values, binary.BigEndian.Uint32(buf))
	}

	wantSum := crc.Sum32()
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrCorruptTable, err)
	}
	if got := binary.BigEndian.Uint32(buf); got != wantSum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorruptTable, got, wantSum)
	}
	return &Table{values: values}, nil
}

// SaveFile writes the table to path atomically (write temp, rename).
func (t *Table) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("database: creating %s: %w", tmp, err)
	}
	bw := bufio.NewWriter(f)
	if _, err := t.WriteTo(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("database: flushing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("database: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("database: renaming into place: %w", err)
	}
	return nil
}

// LoadFile reads a table saved by SaveFile.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("database: opening %s: %w", path, err)
	}
	defer f.Close()
	t, err := ReadTable(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("database: reading %s: %w", path, err)
	}
	return t, nil
}
