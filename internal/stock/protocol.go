// Package stock implements preprocessing-as-a-service: the paper's §3.3
// optimization (pre-encrypted 0/1 bits) promoted from a per-process store
// into a standalone stock-generation daemon plus a prefetching client.
//
// The trust model is the reason this split is safe: stock is public-key-only
// material. The daemon sees a public key and mints encryptions of the
// constants 0 and 1 under it — it learns nothing about which rows any client
// will select, nothing about any database, and holds no secret. A client
// that distrusts the daemon's material loses nothing but privacy it never
// had (the ciphertexts are valid encryptions of 0/1 or they fail the
// server-side fold; correctness of the sum is checked end to end by tests).
//
// Wire protocol (framing, CRC trailers, MsgError conventions and the hello
// codec shared with internal/wire):
//
//	client → MsgStockHello   wire.Hello {scheme, public key, flags, fingerprint}
//	daemon → MsgStockHello   {version, fingerprint}   (ack; or MsgError)
//	client → MsgStockRequest {kind, count}            (repeated)
//	daemon → MsgStockBatch   {kind, width, items}     (≤ count items, maybe 0)
//	client → MsgDone                                  (optional, then close)
//
// The hello's KeyFingerprint is the SHA-256 of the key encoding; the daemon
// requires it, verifies it against the key bytes it received and keys its
// inventories by it, so stock generated for a rotated key can never be
// served against the new one — restores from disk enforce the same binding
// through the storepersist format.
package stock

import (
	"encoding/binary"
	"fmt"

	"privstats/internal/wire"
)

// Version is the version the daemon's hello ack carries.
const Version = 1

// Kind names one stock inventory.
type Kind uint8

// Stock kinds. Each deliberately equals the bit value it carries.
const (
	KindZeroBits Kind = 0
	KindOneBits  Kind = 1
)

// Valid reports whether k names a known stock kind.
func (k Kind) Valid() bool { return k <= KindOneBits }

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindZeroBits:
		return "zero-bits"
	case KindOneBits:
		return "one-bits"
	}
	return fmt.Sprintf("unknown(%d)", uint8(k))
}

// MaxBatchItems caps one request's item count. 4096 ciphertexts of a
// 1024-bit modulus are 1 MB — far below wire.MaxFrame, and a sane prefetch
// unit; clients wanting more issue more requests.
const MaxBatchItems = 4096

// HelloAck is the daemon's MsgStockHello reply.
type HelloAck struct {
	Version uint32
	// Fingerprint names the inventory the daemon admitted the session to.
	Fingerprint [32]byte
}

// Encode serializes a.
func (a *HelloAck) Encode() []byte {
	b := make([]byte, 0, 4+32)
	b = binary.BigEndian.AppendUint32(b, a.Version)
	return append(b, a.Fingerprint[:]...)
}

// DecodeHelloAck parses a daemon's MsgStockHello payload.
func DecodeHelloAck(b []byte) (*HelloAck, error) {
	if len(b) != 4+32 {
		return nil, fmt.Errorf("%w: stock hello ack is %d bytes, want 36", wire.ErrBadMessage, len(b))
	}
	var a HelloAck
	a.Version = binary.BigEndian.Uint32(b)
	copy(a.Fingerprint[:], b[4:])
	return &a, nil
}

// Request asks for up to Count items of one kind.
type Request struct {
	Kind  Kind
	Count uint32
}

// Encode serializes r.
func (r *Request) Encode() []byte {
	b := make([]byte, 5)
	b[0] = byte(r.Kind)
	binary.BigEndian.PutUint32(b[1:], r.Count)
	return b
}

// DecodeRequest parses a MsgStockRequest payload.
func DecodeRequest(b []byte) (*Request, error) {
	if len(b) != 5 {
		return nil, fmt.Errorf("%w: stock request is %d bytes, want 5", wire.ErrBadMessage, len(b))
	}
	r := &Request{Kind: Kind(b[0]), Count: binary.BigEndian.Uint32(b[1:])}
	if !r.Kind.Valid() {
		return nil, fmt.Errorf("%w: unknown stock kind %d", wire.ErrBadMessage, b[0])
	}
	if r.Count == 0 || r.Count > MaxBatchItems {
		return nil, fmt.Errorf("%w: stock request count %d outside [1, %d]", wire.ErrBadMessage, r.Count, MaxBatchItems)
	}
	return r, nil
}

// Batch is the daemon's reply to one Request: Count() fixed-width items.
type Batch struct {
	Kind Kind
	// Items is Count() canonical ciphertext encodings of Width bytes each,
	// back to back.
	Items []byte
	Width int
}

// Count returns the number of items in the batch.
func (b *Batch) Count() int {
	if b.Width <= 0 {
		return 0
	}
	return len(b.Items) / b.Width
}

// At returns the encoding of the i'th item.
func (b *Batch) At(i int) []byte {
	return b.Items[i*b.Width : (i+1)*b.Width]
}

// Encode serializes b.
func (b *Batch) Encode() []byte {
	out := make([]byte, 0, 5+len(b.Items))
	out = append(out, byte(b.Kind))
	out = binary.BigEndian.AppendUint32(out, uint32(b.Width))
	return append(out, b.Items...)
}

// DecodeBatch parses a MsgStockBatch payload. width is the session's item
// width (from the public key) and must match the declared one exactly.
func DecodeBatch(b []byte, width int) (*Batch, error) {
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: stock batch too short", wire.ErrBadMessage)
	}
	kind := Kind(b[0])
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: unknown stock kind %d", wire.ErrBadMessage, b[0])
	}
	declared := binary.BigEndian.Uint32(b[1:])
	if width <= 0 || int(declared) != width {
		return nil, fmt.Errorf("%w: stock batch width %d, session needs %d", wire.ErrBadMessage, declared, width)
	}
	items := b[5:]
	if len(items)%width != 0 {
		return nil, fmt.Errorf("%w: stock batch body %d bytes not a multiple of width %d", wire.ErrBadMessage, len(items), width)
	}
	if len(items)/width > MaxBatchItems {
		return nil, fmt.Errorf("%w: stock batch carries %d items, cap %d", wire.ErrBadMessage, len(items)/width, MaxBatchItems)
	}
	return &Batch{Kind: kind, Items: items, Width: width}, nil
}
