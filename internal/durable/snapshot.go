package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file via a same-directory temp file, fsync, and
// rename, then fsyncs the directory: a crash at any point leaves either the
// old complete file or the new complete file at path, never a truncated
// hybrid. This is the snapshot discipline behind every persisted store in
// the repo (PSBS stock files, compacted job journals).
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: creating %s: %w", tmp, err)
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: flushing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: renaming %s into place: %w", tmp, err)
	}
	return syncDir(path)
}

// syncDir fsyncs path's parent directory so the rename that landed path is
// itself durable. Filesystems that refuse directory fsync (some network
// mounts) are tolerated: the rename still happened, only its durability
// window widens.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
