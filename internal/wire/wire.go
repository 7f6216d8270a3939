// Package wire defines the message framing and codecs used between the
// selected-sum client and server.
//
// Framing is deliberately simple: every frame is
//
//	1 byte  message type
//	4 bytes big-endian payload length
//	payload
//
// All multi-byte integers are big-endian. Ciphertext vectors are encoded as
// contiguous fixed-width values (the width is pinned by the public key that
// accompanies the session), so a chunk of k ciphertexts costs exactly
// 5 + 8 + k·width bytes on the wire — which makes the communication
// accounting in the benchmarks exact rather than estimated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// MsgType identifies a frame's payload.
type MsgType byte

// Protocol message types.
const (
	// MsgHello opens a session: client sends protocol parameters and its
	// public key.
	MsgHello MsgType = 0x01
	// MsgIndexChunk carries a contiguous run of encrypted index-vector
	// entries.
	MsgIndexChunk MsgType = 0x02
	// MsgSum carries the server's single encrypted (possibly blinded) sum.
	MsgSum MsgType = 0x03
	// MsgError carries a human-readable failure reason; either side may
	// send it before closing.
	MsgError MsgType = 0x04
	// MsgDone signals the client has sent its entire index vector.
	MsgDone MsgType = 0x05
)

// Stock-service message types (internal/stock). They live in a distinct
// range so a stock frame can never be mistaken for a selected-sum frame, and
// the 0x80 bit stays reserved for the CRC flag. Payload codecs live in
// internal/stock; the framing, CRC trailers, and MsgError conventions are
// shared with the selected-sum protocol.
const (
	// MsgStockHello opens a stock session: the client sends its public key
	// (and its fingerprint, which the daemon verifies) so the daemon can
	// select — or create — the matching inventory. The daemon echoes a
	// MsgStockHello ack carrying the fingerprint it admitted.
	MsgStockHello MsgType = 0x10
	// MsgStockRequest asks for up to Count items of one stock kind.
	MsgStockRequest MsgType = 0x11
	// MsgStockBatch carries the daemon's reply: as many fixed-width items as
	// it had on hand, possibly zero — the daemon never blocks a client
	// waiting for generation.
	MsgStockBatch MsgType = 0x12
)

// MaxFrame bounds a frame payload. A 100,000-element chunk of 1024-bit-
// modulus ciphertexts is ~25.6 MB; 64 MB leaves generous headroom while
// still rejecting absurd lengths from a corrupt or hostile peer before
// allocation.
const MaxFrame = 64 << 20

// frameFlagCRC, set on the wire type byte, marks a frame that carries a
// 4-byte big-endian CRC32 (IEEE) trailer computed over the header and
// payload. Receivers handle flagged frames statelessly — negotiation (the
// HelloFlagFrameCRC hello flag) only governs which frames a sender flags,
// so a CRC session still parses the plain frames a pre-negotiation path
// (e.g. the server's busy rejection) may emit.
const frameFlagCRC = 0x80

// crcTrailerSize is the length of the CRC32 frame trailer.
const crcTrailerSize = 4

// Protocol version for MsgHello.
const Version = 1

var (
	// ErrFrameTooLarge is returned when a declared payload exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrBadMessage is returned when a payload does not parse.
	ErrBadMessage = errors.New("wire: malformed message")
	// ErrFrameCorrupt is returned when a CRC-trailed frame fails its
	// checksum: the bytes were damaged in flight. Unlike ErrBadMessage it
	// is a transport fault, so the cluster client treats it as retryable.
	ErrFrameCorrupt = errors.New("wire: frame corrupt (CRC mismatch)")
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    MsgType
	Payload []byte
	// CRC reports whether the frame carried (and passed) a CRC32 trailer.
	CRC bool
}

// WriteFrame writes one frame to w and returns the number of bytes written.
func WriteFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	return writeFrame(w, t, nil, payload, false)
}

// WriteFrameCRC writes one frame with a CRC32 trailer (the frameFlagCRC
// bit set on the type byte, a 4-byte checksum over header and payload
// appended). It returns the number of bytes written.
func WriteFrameCRC(w io.Writer, t MsgType, payload []byte) (int, error) {
	return writeFrame(w, t, nil, payload, true)
}

// writeFrame is the one frame writer: it writes a frame whose payload is head
// followed by body, without joining them, so a chunk's ciphertexts go out from
// wherever they already are. The header and head share one write, the body
// takes a second, and a CRC trailer, when crc is set, a third.
func writeFrame(w io.Writer, t MsgType, head, body []byte, crc bool) (int, error) {
	if byte(t)&frameFlagCRC != 0 {
		return 0, fmt.Errorf("%w: type %#x uses the reserved CRC flag bit", ErrBadMessage, byte(t))
	}
	n := len(head) + len(body)
	if n > MaxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	pre := make([]byte, 5, 5+len(head))
	pre[0] = byte(t)
	if crc {
		pre[0] |= frameFlagCRC
	}
	binary.BigEndian.PutUint32(pre[1:], uint32(n))
	pre = append(pre, head...)
	if _, err := w.Write(pre); err != nil {
		return 0, fmt.Errorf("wire: writing frame header: %w", err)
	}
	// Skip zero-length writes: net.Pipe synchronizes even empty Writes
	// with a Read, so writing an empty payload would deadlock against a
	// peer that (correctly) never issues a zero-byte read.
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return len(pre), fmt.Errorf("wire: writing frame payload: %w", err)
		}
	}
	if !crc {
		return len(pre) + len(body), nil
	}
	sum := crc32.Update(crc32.ChecksumIEEE(pre), crc32.IEEETable, body)
	var trailer [crcTrailerSize]byte
	binary.BigEndian.PutUint32(trailer[:], sum)
	if _, err := w.Write(trailer[:]); err != nil {
		return len(pre) + len(body), fmt.Errorf("wire: writing frame trailer: %w", err)
	}
	return len(pre) + len(body) + crcTrailerSize, nil
}

// ReadFrame reads one frame from r. It validates the declared length before
// allocating, and verifies the CRC32 trailer when the frame carries one.
func ReadFrame(r io.Reader) (Frame, int, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit is ReadFrame with a caller-chosen payload ceiling (capped
// at MaxFrame). Peers that know the largest frame they can legitimately
// receive — a client expecting one sum ciphertext, an aggregator expecting
// one partial — use it to reject a hostile or corrupt declared length far
// below the global bound, before allocating.
func ReadFrameLimit(r io.Reader, limit int) (Frame, int, error) {
	return readFrameInto(r, limit, nil)
}

// readFrameInto is ReadFrameLimit reading the payload into buf when it has
// the capacity, and into a fresh allocation of exactly the payload otherwise.
// The payload is buf[:n] in the first case, so it lives only as long as the
// caller leaves buf alone.
func readFrameInto(r io.Reader, limit int, buf []byte) (Frame, int, error) {
	if limit <= 0 || limit > MaxFrame {
		limit = MaxFrame
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > uint32(limit) {
		return Frame{}, len(hdr), fmt.Errorf("%w: declared %d bytes (limit %d)", ErrFrameTooLarge, n, limit)
	}
	payload := buf[:0]
	if buf == nil || uint32(cap(buf)) < n {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, len(hdr), fmt.Errorf("wire: reading frame payload: %w", err)
	}
	read := len(hdr) + int(n)
	t := hdr[0]
	if t&frameFlagCRC == 0 {
		return Frame{Type: MsgType(t), Payload: payload}, read, nil
	}
	var trailer [crcTrailerSize]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return Frame{}, read, fmt.Errorf("wire: reading frame trailer: %w", err)
	}
	read += crcTrailerSize
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if got := binary.BigEndian.Uint32(trailer[:]); got != sum {
		return Frame{}, read, fmt.Errorf("%w: trailer %08x, computed %08x", ErrFrameCorrupt, got, sum)
	}
	return Frame{Type: MsgType(t &^ frameFlagCRC), Payload: payload, CRC: true}, read, nil
}

// Hello option flags (Hello.Flags bits).
const (
	// HelloFlagFrameCRC asks the peer to append CRC32 trailers to the
	// frames it sends for the rest of the session; the sender of the flag
	// commits to doing the same (its hello is already CRC-framed).
	// Corruption is then detected at the frame layer instead of surfacing
	// as a garbage bignum or a misparsed message.
	HelloFlagFrameCRC uint32 = 1 << 0
)

// ColumnSet selects which server-side derived columns a session folds the
// encrypted index vector against. It is a bitmask so one uplink can feed
// several folds — the paper's variance trick ("one uplink and two response
// ciphertexts") generalized to the wire: the server replies with one MsgSum
// per set bit, in ascending bit order.
type ColumnSet uint32

// Column bits. The zero value means "value column only", which keeps the
// hello parseable by (and equivalent for) pre-columns peers.
const (
	// ColValue folds against the raw value column x_i.
	ColValue ColumnSet = 1 << 0
	// ColSquare folds against the derived square column x_i².
	ColSquare ColumnSet = 1 << 1
	// ColOnes folds against the constant-1 column, yielding the selected
	// count m without revealing the selection.
	ColOnes ColumnSet = 1 << 2

	// colAll is the union of every known bit.
	colAll = ColValue | ColSquare | ColOnes
)

// Valid reports whether the set names only known columns (the empty set is
// valid: it means the default value-only session).
func (c ColumnSet) Valid() bool { return c&^colAll == 0 }

// Has reports whether bit col is set.
func (c ColumnSet) Has(col ColumnSet) bool { return c&col != 0 }

// Count returns the number of selected columns — the number of MsgSum
// frames a server replies with. The empty set counts as one (value only).
func (c ColumnSet) Count() int {
	if c == 0 {
		return 1
	}
	n := 0
	for b := c; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// String names the set for logs and errors, e.g. "value|square".
func (c ColumnSet) String() string {
	if c == 0 {
		return "value"
	}
	var parts []string
	if c.Has(ColValue) {
		parts = append(parts, "value")
	}
	if c.Has(ColSquare) {
		parts = append(parts, "square")
	}
	if c.Has(ColOnes) {
		parts = append(parts, "ones")
	}
	if rest := c &^ colAll; rest != 0 {
		parts = append(parts, fmt.Sprintf("unknown(%#x)", uint32(rest)))
	}
	return strings.Join(parts, "|")
}

// Hello is the session-opening message.
type Hello struct {
	Version uint32
	// Scheme names the homomorphic cryptosystem ("paillier", ...).
	Scheme string
	// PublicKey is the scheme-specific key encoding.
	PublicKey []byte
	// VectorLen is the total index-vector length n the client will send.
	VectorLen uint64
	// ChunkLen is the number of ciphertexts per MsgIndexChunk (0 means a
	// single chunk carrying the whole vector).
	ChunkLen uint32
	// RowOffset scopes the session to rows [RowOffset, RowOffset+VectorLen)
	// of a larger logical database: index-chunk offsets stay in the global
	// coordinate system and the server translates them by RowOffset. The
	// cluster aggregator uses this to fan one logical query out to sharded
	// backends without rewriting chunk framing. Zero (the single-server
	// default) leaves offsets untranslated.
	RowOffset uint64
	// Flags carries session option bits (HelloFlag*). Unknown bits are
	// ignored by the receiver, so new options stay backward compatible.
	Flags uint32
	// TraceID, when non-zero, is the 16-byte request identifier the client
	// minted for end-to-end tracing (internal/trace): every component the
	// query touches records its per-phase costs under this ID, and the
	// aggregator forwards it to each backend shard so one ID stitches the
	// whole fan-out together. The all-zero value means "no trace" and is
	// not sent on the wire, keeping the hello parseable by pre-trace peers.
	TraceID [16]byte
	// Columns selects which derived columns the session folds against
	// (Col* bits); the server replies with one MsgSum per column in
	// ascending bit order. Zero means "value column only" and is not sent
	// on the wire, keeping the hello parseable by pre-columns peers.
	Columns ColumnSet
}

// HasTraceID reports whether the hello carries a (non-zero) trace ID.
func (h *Hello) HasTraceID() bool { return h.TraceID != [16]byte{} }

// EffectiveColumns normalizes the column set: the wire's zero value means a
// plain value-column session.
func (h *Hello) EffectiveColumns() ColumnSet {
	if h.Columns == 0 {
		return ColValue
	}
	return h.Columns
}

// Encode serializes h. The trailer is emitted in its shortest accepted
// form — flags are appended only when set — so a flagless hello stays
// parseable by pre-flags peers.
func (h *Hello) Encode() []byte {
	b := make([]byte, 0, 4+4+len(h.Scheme)+4+len(h.PublicKey)+8+4+8+4+16+4)
	b = binary.BigEndian.AppendUint32(b, h.Version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Scheme)))
	b = append(b, h.Scheme...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.PublicKey)))
	b = append(b, h.PublicKey...)
	b = binary.BigEndian.AppendUint64(b, h.VectorLen)
	b = binary.BigEndian.AppendUint32(b, h.ChunkLen)
	b = binary.BigEndian.AppendUint64(b, h.RowOffset)
	if h.Flags != 0 || h.HasTraceID() || h.Columns != 0 {
		// A trace ID or column set forces the flags word out too (even when
		// zero): the trailer forms are distinguished by length alone.
		b = binary.BigEndian.AppendUint32(b, h.Flags)
	}
	if h.HasTraceID() || h.Columns != 0 {
		b = append(b, h.TraceID[:]...)
	}
	if h.Columns != 0 {
		b = binary.BigEndian.AppendUint32(b, uint32(h.Columns))
	}
	return b
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (*Hello, error) {
	var h Hello
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: hello too short", ErrBadMessage)
	}
	h.Version = binary.BigEndian.Uint32(b)
	b = b[4:]
	schemeLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if schemeLen > 255 || uint32(len(b)) < schemeLen {
		return nil, fmt.Errorf("%w: bad scheme length %d", ErrBadMessage, schemeLen)
	}
	h.Scheme = string(b[:schemeLen])
	b = b[schemeLen:]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: hello truncated before key", ErrBadMessage)
	}
	keyLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < keyLen {
		return nil, fmt.Errorf("%w: hello truncated key", ErrBadMessage)
	}
	h.PublicKey = append([]byte(nil), b[:keyLen]...)
	b = b[keyLen:]
	// Five accepted trailers: the original 12-byte form (vector length +
	// chunk length), the 20-byte shard-scoped form that appends RowOffset,
	// the 24-byte form that appends session Flags, the 40-byte form that
	// appends a 16-byte trace ID, and the 44-byte form that appends a
	// column-set word. Accepting all keeps earlier clients interoperable —
	// a missing row offset means "rows start at zero", missing flags mean
	// "no options", a missing trace ID means "no trace", a missing column
	// set means "value column only".
	switch len(b) {
	case 12, 20, 24, 40, 44:
	default:
		return nil, fmt.Errorf("%w: hello has %d trailing bytes, want 12, 20, 24, 40, or 44", ErrBadMessage, len(b))
	}
	h.VectorLen = binary.BigEndian.Uint64(b)
	h.ChunkLen = binary.BigEndian.Uint32(b[8:])
	if len(b) >= 20 {
		h.RowOffset = binary.BigEndian.Uint64(b[12:])
	}
	if len(b) >= 24 {
		h.Flags = binary.BigEndian.Uint32(b[20:])
	}
	if len(b) >= 40 {
		copy(h.TraceID[:], b[24:])
	}
	if len(b) == 44 {
		h.Columns = ColumnSet(binary.BigEndian.Uint32(b[40:]))
	}
	return &h, nil
}

// IndexChunk carries ciphertexts for vector positions [Offset, Offset+Count).
type IndexChunk struct {
	Offset uint64
	// Ciphertexts is Count fixed-width encodings back to back; Width is the
	// per-ciphertext byte width (from the session's public key).
	Ciphertexts []byte
	Width       int
}

// Count returns the number of ciphertexts in the chunk.
func (c *IndexChunk) Count() int {
	if c.Width <= 0 {
		return 0
	}
	return len(c.Ciphertexts) / c.Width
}

// At returns the encoding of the i'th ciphertext in the chunk.
func (c *IndexChunk) At(i int) []byte {
	return c.Ciphertexts[i*c.Width : (i+1)*c.Width]
}

// Encode serializes the chunk.
func (c *IndexChunk) Encode() []byte {
	b := make([]byte, 0, 8+len(c.Ciphertexts))
	b = binary.BigEndian.AppendUint64(b, c.Offset)
	return append(b, c.Ciphertexts...)
}

// DecodeIndexChunk parses an IndexChunk payload; width is the session's
// ciphertext width and must evenly divide the ciphertext bytes.
func DecodeIndexChunk(b []byte, width int) (*IndexChunk, error) {
	if width <= 0 {
		return nil, fmt.Errorf("%w: non-positive ciphertext width", ErrBadMessage)
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: chunk too short", ErrBadMessage)
	}
	body := b[8:]
	if len(body)%width != 0 {
		return nil, fmt.Errorf("%w: chunk body %d bytes not a multiple of width %d", ErrBadMessage, len(body), width)
	}
	return &IndexChunk{
		Offset:      binary.BigEndian.Uint64(b),
		Ciphertexts: body,
		Width:       width,
	}, nil
}

// MaxErrorPayload bounds a MsgError payload in both directions: encoders
// truncate before sending, and DecodeError truncates before logging, so a
// malicious peer cannot blow up client logs or memory with a multi-megabyte
// "error message".
const MaxErrorPayload = 1024

// ErrorCode classifies a MsgError so the receiving side can react without
// parsing prose: retry on transient faults, fail fast on protocol
// rejections. Codes travel as a "[code] " payload prefix, which stays
// readable to peers that treat the payload as free text.
type ErrorCode string

// Known error codes.
const (
	// CodeNone marks an uncoded (legacy free-text) error.
	CodeNone ErrorCode = ""
	// CodeBusy is the server's admission-control rejection: load shedding,
	// worth retrying elsewhere or later.
	CodeBusy ErrorCode = "busy"
	// CodeTimeout reports the peer gave up waiting (idle/session deadline).
	CodeTimeout ErrorCode = "timeout"
	// CodeCorruptFrame reports the peer received a frame that failed its
	// CRC check — a transport fault, retryable on a fresh connection.
	CodeCorruptFrame ErrorCode = "corrupt-frame"
	// CodeShardUnavailable is the aggregator's classified partial-failure
	// report: a shard exhausted every candidate backend, so the whole query
	// failed (never a partial sum). Transient cluster state, retryable.
	CodeShardUnavailable ErrorCode = "shard-unavailable"
	// CodeProtocol marks a deterministic protocol rejection (bad lengths,
	// unknown scheme, malformed message); retrying cannot help.
	CodeProtocol ErrorCode = "protocol"
)

// PeerError is the decoded form of a MsgError payload.
type PeerError struct {
	Code ErrorCode
	Msg  string
}

// Error implements error, keeping the legacy "wire: peer error: ..." shape
// (with the raw "[code] " prefix intact) so existing string matching holds.
func (e *PeerError) Error() string {
	if e.Code != CodeNone {
		return fmt.Sprintf("wire: peer error: [%s] %s", e.Code, e.Msg)
	}
	return "wire: peer error: " + e.Msg
}

// ErrorCode reports the code the peer sent.
func (e *PeerError) ErrorCode() ErrorCode { return e.Code }

// ErrorCodeOf extracts the code from a (possibly wrapped) PeerError — or
// from any error in the chain that classifies itself with an ErrorCode
// method, which is how a layer above the session loop (the aggregator's
// shard-unavailable verdict) picks the code its failure is reported with.
func ErrorCodeOf(err error) ErrorCode {
	var coded interface{ ErrorCode() ErrorCode }
	if errors.As(err, &coded) {
		return coded.ErrorCode()
	}
	return CodeNone
}

// ErrorCodeFor picks the MsgError code describing why a session is being
// failed: transport-level faults get their transient codes (so the peer's
// retry policy can distinguish them), everything else stays uncoded for the
// caller to classify. A relayed PeerError keeps its original code.
func ErrorCodeFor(err error) ErrorCode {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, ErrFrameCorrupt):
		return CodeCorruptFrame
	case IsTimeout(err):
		return CodeTimeout
	}
	return ErrorCodeOf(err)
}

// EncodeError wraps a free-text MsgError payload, truncated to
// MaxErrorPayload.
func EncodeError(msg string) []byte { return EncodeErrorCode(CodeNone, msg) }

// EncodeErrorCode wraps a classified MsgError payload: "[code] msg",
// truncated to MaxErrorPayload.
func EncodeErrorCode(code ErrorCode, msg string) []byte {
	s := msg
	if code != CodeNone {
		s = "[" + string(code) + "] " + msg
	}
	if len(s) > MaxErrorPayload {
		s = s[:MaxErrorPayload]
	}
	return []byte(s)
}

// DecodeError returns the error carried by a MsgError payload. The payload
// is hostile input: it is truncated to MaxErrorPayload and stripped of
// non-printable bytes before it can reach a log line or terminal, and a
// recognized "[code] " prefix is lifted into PeerError.Code.
func DecodeError(b []byte) error {
	if len(b) > MaxErrorPayload {
		b = b[:MaxErrorPayload]
	}
	text := sanitizeErrorText(b)
	code, rest, ok := splitErrorCode(text)
	if ok {
		return &PeerError{Code: code, Msg: rest}
	}
	return &PeerError{Msg: text}
}

// sanitizeErrorText replaces every non-printable byte (anything outside
// 0x20..0x7E, including newlines and ANSI escape bytes) with '.'.
func sanitizeErrorText(b []byte) string {
	clean := make([]byte, len(b))
	for i, c := range b {
		if c < 0x20 || c > 0x7E {
			c = '.'
		}
		clean[i] = c
	}
	return string(clean)
}

// splitErrorCode parses a "[code] rest" prefix. Only short lowercase
// kebab-case tokens qualify, so bracketed prose is left alone.
func splitErrorCode(s string) (ErrorCode, string, bool) {
	if !strings.HasPrefix(s, "[") {
		return CodeNone, "", false
	}
	end := strings.Index(s, "] ")
	if end < 1 || end > 33 {
		return CodeNone, "", false
	}
	code := s[1:end]
	for i := 0; i < len(code); i++ {
		c := code[i]
		if (c < 'a' || c > 'z') && c != '-' {
			return CodeNone, "", false
		}
	}
	return ErrorCode(code), s[end+2:], true
}
