package paillier

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"privstats/internal/durable"
)

// Persistence for the preprocessed bit store — the paper's PDA scenario:
// "mobile devices … that have limited computing power but reasonable
// amounts of storage" precompute encryptions while docked and carry them as
// a file. Format:
//
//	"PSBS"              magic
//	uint32              version
//	32 bytes            SHA-256 of the public key encoding (binding)
//	uint32              ciphertext width
//	uint64 ×2           zero count, one count
//	ciphertexts         zeros then ones, fixed width each
//	uint32              CRC-32 (IEEE) of everything above
//
// The key binding means a store cannot silently be replayed against a
// different key (the draws would be garbage ciphertexts); the checksum
// catches truncation and rot.

const (
	storeMagic   = "PSBS"
	storeVersion = 1
)

// maxStock bounds the counts a store header may declare, rejecting absurd
// values from a corrupt file before any allocation.
const maxStock = 1 << 28

// ErrStoreKeyMismatch is returned when a store file was preprocessed under
// a different public key.
var ErrStoreKeyMismatch = errors.New("paillier: bit store belongs to a different key")

// ErrCorruptStore is returned when a store file fails validation.
var ErrCorruptStore = errors.New("paillier: corrupt bit store file")

// KeyFingerprint returns the SHA-256 of the public key's canonical encoding
// — the identity that binds persisted stores and stock-daemon inventories to
// one key, so material for a rotated key is rejected rather than replayed.
func KeyFingerprint(pk *PublicKey) ([32]byte, error) {
	raw, err := pk.MarshalBinary()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// WriteTo streams the store's current stock to w. The store is not drained;
// callers typically persist right after Fill.
func (s *BitStore) WriteTo(w io.Writer) (int64, error) {
	fp, err := KeyFingerprint(s.pk)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	zeros := append([]*Ciphertext(nil), s.zeros...)
	ones := append([]*Ciphertext(nil), s.ones...)
	s.mu.Unlock()

	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	var written int64

	hdr := make([]byte, 0, 64)
	hdr = append(hdr, storeMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, storeVersion)
	hdr = append(hdr, fp[:]...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(s.pk.CiphertextSize()))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(zeros)))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(ones)))
	n, err := mw.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("paillier: writing store header: %w", err)
	}
	for _, group := range [][]*Ciphertext{zeros, ones} {
		for _, ct := range group {
			n, err := mw.Write(ct.Bytes())
			written += int64(n)
			if err != nil {
				return written, fmt.Errorf("paillier: writing store body: %w", err)
			}
		}
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	n, err = w.Write(sum[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("paillier: writing store checksum: %w", err)
	}
	return written, nil
}

// ReadBitStore loads a store previously written with WriteTo, validating
// the key binding, every ciphertext, and the checksum.
func ReadBitStore(r io.Reader, pk *PublicKey) (*BitStore, error) {
	fp, err := KeyFingerprint(pk)
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	hdr := make([]byte, 4+4+32+4+8+8)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorruptStore, err)
	}
	if string(hdr[:4]) != storeMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptStore, hdr[:4])
	}
	if v := binary.BigEndian.Uint32(hdr[4:]); v != storeVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptStore, v)
	}
	var gotFP [32]byte
	copy(gotFP[:], hdr[8:40])
	if gotFP != fp {
		return nil, ErrStoreKeyMismatch
	}
	width := binary.BigEndian.Uint32(hdr[40:])
	if int(width) != pk.CiphertextSize() {
		return nil, fmt.Errorf("%w: width %d, key needs %d", ErrCorruptStore, width, pk.CiphertextSize())
	}
	nZeros := binary.BigEndian.Uint64(hdr[44:])
	nOnes := binary.BigEndian.Uint64(hdr[52:])
	if nZeros > maxStock || nOnes > maxStock {
		return nil, fmt.Errorf("%w: absurd stock counts (%d, %d)", ErrCorruptStore, nZeros, nOnes)
	}

	store := NewBitStore(pk)
	buf := make([]byte, width)
	load := func(count uint64, dst *[]*Ciphertext) error {
		for i := uint64(0); i < count; i++ {
			if _, err := io.ReadFull(tr, buf); err != nil {
				return fmt.Errorf("%w: ciphertext %d: %v", ErrCorruptStore, i, err)
			}
			ct, err := pk.ParseCiphertext(buf)
			if err != nil {
				return fmt.Errorf("%w: ciphertext %d: %v", ErrCorruptStore, i, err)
			}
			*dst = append(*dst, ct)
		}
		return nil
	}
	if err := load(nZeros, &store.zeros); err != nil {
		return nil, err
	}
	if err := load(nOnes, &store.ones); err != nil {
		return nil, err
	}

	wantSum := crc.Sum32()
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrCorruptStore, err)
	}
	if got := binary.BigEndian.Uint32(buf[:4]); got != wantSum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptStore)
	}
	return store, nil
}

// SaveFile writes the store to path atomically: through a temp file renamed
// into place, with fsync on both the file and its directory, so a crash
// mid-write never leaves a truncated store behind.
func (s *BitStore) SaveFile(path string) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// LoadBitStore reads a store saved by SaveFile.
func LoadBitStore(path string, pk *PublicKey) (*BitStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("paillier: opening %s: %w", path, err)
	}
	defer f.Close()
	store, err := ReadBitStore(bufio.NewReader(f), pk)
	if err != nil {
		return nil, fmt.Errorf("paillier: reading %s: %w", path, err)
	}
	return store, nil
}
