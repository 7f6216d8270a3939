package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, selected sum")
	wn, err := WriteFrame(&buf, MsgHello, payload)
	if err != nil {
		t.Fatal(err)
	}
	if wn != 5+len(payload) {
		t.Errorf("wrote %d bytes, want %d", wn, 5+len(payload))
	}
	f, rn, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rn != wn {
		t.Errorf("read %d bytes, wrote %d", rn, wn)
	}
	if f.Type != MsgHello || !bytes.Equal(f.Payload, payload) {
		t.Errorf("frame = %+v", f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	// The high bit of the type byte is the reserved CRC flag, so the valid
	// caller-facing type space is 7 bits; both framings must round-trip it.
	prop := func(t8 uint8, payload []byte, crc bool) bool {
		t8 &= 0x7F
		var buf bytes.Buffer
		var err error
		if crc {
			_, err = WriteFrameCRC(&buf, MsgType(t8), payload)
		} else {
			_, err = WriteFrame(&buf, MsgType(t8), payload)
		}
		if err != nil {
			return false
		}
		f, _, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return f.Type == MsgType(t8) && bytes.Equal(f.Payload, payload) && f.CRC == crc
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteFrameRejectsReservedTypeBit(t *testing.T) {
	if _, err := WriteFrame(io.Discard, MsgType(0x81), nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("plain: err = %v, want ErrBadMessage", err)
	}
	if _, err := WriteFrameCRC(io.Discard, MsgType(0x81), nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("crc: err = %v, want ErrBadMessage", err)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgDone, nil); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgDone || len(f.Payload) != 0 {
		t.Errorf("frame = %+v", f)
	}
}

func TestReadFrameRejectsOversizedDeclaration(t *testing.T) {
	// Hand-craft a header declaring MaxFrame+1 bytes.
	hdr := []byte{byte(MsgIndexChunk), 0xFF, 0xFF, 0xFF, 0xFF}
	_, _, err := ReadFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgSum, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes should fail", cut)
		}
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	huge := make([]byte, MaxFrame+1)
	if _, err := WriteFrame(io.Discard, MsgIndexChunk, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{
		Version:   Version,
		Scheme:    "paillier",
		PublicKey: []byte{1, 2, 3, 4, 5},
		VectorLen: 100000,
		ChunkLen:  100,
	}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != h.Version || got.Scheme != h.Scheme ||
		!bytes.Equal(got.PublicKey, h.PublicKey) ||
		got.VectorLen != h.VectorLen || got.ChunkLen != h.ChunkLen {
		t.Errorf("got %+v, want %+v", got, h)
	}
}

func TestHelloRoundTripProperty(t *testing.T) {
	prop := func(scheme string, key []byte, n uint64, chunk uint32) bool {
		if len(scheme) > 255 {
			scheme = scheme[:255]
		}
		h := &Hello{Version: Version, Scheme: scheme, PublicKey: key, VectorLen: n, ChunkLen: chunk}
		got, err := DecodeHello(h.Encode())
		if err != nil {
			return false
		}
		return got.Scheme == scheme && bytes.Equal(got.PublicKey, key) &&
			got.VectorLen == n && got.ChunkLen == chunk
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeHelloRejectsCorruption(t *testing.T) {
	h := &Hello{Scheme: "paillier", PublicKey: []byte{9}, VectorLen: 5, ChunkLen: 1}
	good := h.Encode()
	cases := [][]byte{
		nil,
		good[:3],
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xAA),
	}
	for i, b := range cases {
		if _, err := DecodeHello(b); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Absurd scheme length.
	bad := append([]byte{}, good...)
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeHello(bad); err == nil {
		t.Error("giant scheme length should fail")
	}
	// good ends in its presence byte (no extensions).
	edits := map[string]func(b []byte) []byte{
		"unknown version": func(b []byte) []byte { binary.BigEndian.PutUint32(b, 3); return b },
		"unknown presence bit": func(b []byte) []byte {
			b[len(b)-1] = 1 << 5
			return b
		},
		"present but missing": func(b []byte) []byte {
			b[len(b)-1] = 1 << 1
			return b
		},
		"present but zero": func(b []byte) []byte {
			b[len(b)-1] = 1 << 1
			return append(b, 0, 0, 0, 0)
		},
	}
	for name, edit := range edits {
		if _, err := DecodeHello(edit(append([]byte{}, good...))); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
}

func TestIndexChunkRoundTrip(t *testing.T) {
	width := 16
	body := make([]byte, 3*width)
	for i := range body {
		body[i] = byte(i)
	}
	c := &IndexChunk{Offset: 4242, Ciphertexts: body, Width: width}
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	got, err := DecodeIndexChunk(c.Encode(), width)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offset != 4242 || got.Count() != 3 {
		t.Errorf("decoded %+v", got)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(got.At(i), body[i*width:(i+1)*width]) {
			t.Errorf("ciphertext %d corrupted", i)
		}
	}
}

func TestDecodeIndexChunkValidation(t *testing.T) {
	if _, err := DecodeIndexChunk([]byte{1, 2, 3}, 16); err == nil {
		t.Error("short chunk should fail")
	}
	if _, err := DecodeIndexChunk(make([]byte, 8+17), 16); err == nil {
		t.Error("ragged body should fail")
	}
	if _, err := DecodeIndexChunk(make([]byte, 24), 0); err == nil {
		t.Error("zero width should fail")
	}
	// Empty body is a legal (if useless) chunk.
	c, err := DecodeIndexChunk(make([]byte, 8), 16)
	if err != nil || c.Count() != 0 {
		t.Errorf("empty chunk: %v, count %d", err, c.Count())
	}
}

func TestMeterCounts(t *testing.T) {
	var m Meter
	m.AddOut(100)
	m.AddOut(50)
	m.AddIn(7)
	out, in, fo, fi := m.Snapshot()
	if out != 150 || in != 7 || fo != 2 || fi != 1 {
		t.Errorf("snapshot = (%d,%d,%d,%d)", out, in, fo, fi)
	}
	m.Reset()
	if out, in, fo, fi := m.Snapshot(); out != 0 || in != 0 || fo != 0 || fi != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestConnOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan error, 1)
	go func() {
		f, err := cb.Recv()
		if err != nil {
			done <- err
			return
		}
		if f.Type != MsgHello {
			done <- errors.New("wrong type")
			return
		}
		done <- cb.Send(MsgSum, []byte("response"))
	}()

	if err := ca.Send(MsgHello, []byte("request")); err != nil {
		t.Fatal(err)
	}
	f, err := ca.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Payload) != "response" {
		t.Errorf("payload = %q", f.Payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out, in, _, _ := ca.Meter.Snapshot()
	if out != int64(5+len("request")) || in != int64(5+len("response")) {
		t.Errorf("meter = (%d, %d)", out, in)
	}
}

func TestConnSendError(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() { _ = ca.SendError("database on fire") }()
	f, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgError {
		t.Fatalf("type = %v", f.Type)
	}
	perr := DecodeError(f.Payload)
	if !strings.Contains(perr.Error(), "database on fire") {
		t.Errorf("err = %v", perr)
	}
}

func TestHelloRowOffsetRoundTrip(t *testing.T) {
	h := &Hello{
		Version:   Version,
		Scheme:    "paillier",
		PublicKey: []byte{7, 8, 9},
		VectorLen: 2500,
		ChunkLen:  100,
		RowOffset: 5000,
	}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.RowOffset != h.RowOffset || got.VectorLen != h.VectorLen {
		t.Errorf("got offset %d len %d, want %d %d", got.RowOffset, got.VectorLen, h.RowOffset, h.VectorLen)
	}
}

// versionOneHello is h as a Version 1 client sent it: the key and scheme
// prefix, then trailer.
func versionOneHello(h *Hello, trailer []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, 1)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Scheme)))
	b = append(b, h.Scheme...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.PublicKey)))
	b = append(b, h.PublicKey...)
	return append(b, trailer...)
}

// TestDecodeHelloLegacyTrailer is the one interop test between hello
// versions. A Version 1 hello with its original 12-byte trailer (vector and
// chunk length) decodes with every extension absent: no row offset, no
// flags, no trace, the value column. The later Version 1 trailers (20, 24,
// 40 and 44 bytes) are refused. The same hello from a current client is
// Version 2 and one presence byte longer.
func TestDecodeHelloLegacyTrailer(t *testing.T) {
	h := &Hello{Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 42, ChunkLen: 7}
	core := binary.BigEndian.AppendUint64(nil, h.VectorLen)
	core = binary.BigEndian.AppendUint32(core, h.ChunkLen)
	legacy := versionOneHello(h, core)
	got, err := DecodeHello(legacy)
	if err != nil {
		t.Fatal(err)
	}
	want := *h
	want.Version = 1
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("legacy decode got %+v, want %+v", got, want)
	}
	if got.EffectiveColumns() != ColValue || got.HasTraceID() {
		t.Errorf("legacy hello sprouted columns %v or a trace", got.EffectiveColumns())
	}
	for _, n := range []int{20, 24, 40, 44} {
		if _, err := DecodeHello(versionOneHello(h, make([]byte, n))); !errors.Is(err, ErrBadMessage) {
			t.Errorf("version 1 hello with a %d-byte trailer: err = %v, want ErrBadMessage", n, err)
		}
	}
	current := h.Encode()
	if binary.BigEndian.Uint32(current) != Version || len(current) != len(legacy)+1 {
		t.Fatalf("current hello is version %d, %d bytes; want version %d, %d bytes",
			binary.BigEndian.Uint32(current), len(current), Version, len(legacy)+1)
	}
	again, err := DecodeHello(current)
	if err != nil {
		t.Fatal(err)
	}
	want.Version = Version
	if !reflect.DeepEqual(*again, want) {
		t.Errorf("current decode got %+v, want %+v", again, want)
	}
}

// TestHelloSizes pins the bytes after the key of each hello shape the
// workloads send: the 12-byte core, the presence byte and the extensions
// the shape sets.
func TestHelloSizes(t *testing.T) {
	trace := [16]byte{1}
	for _, c := range []struct {
		name    string
		h       Hello
		trailer int
	}{
		{"value-only", Hello{}, 13},
		{"CRC", Hello{Flags: HelloFlagFrameCRC}, 17},
		{"CRC plus columns", Hello{Flags: HelloFlagFrameCRC, Columns: ColValue | ColSquare}, 21},
		{"sharded", Hello{RowOffset: 10000}, 21},
		{"traced", Hello{TraceID: trace}, 29},
		{"traced CRC shard with columns", Hello{RowOffset: 1, Flags: HelloFlagFrameCRC, TraceID: trace, Columns: ColOnes}, 45},
		{"stock", Hello{KeyFingerprint: [32]byte{1}}, 45},
	} {
		c.h.Scheme, c.h.PublicKey, c.h.VectorLen = "paillier", make([]byte, 256), 20000
		prefix := 4 + 4 + len(c.h.Scheme) + 4 + len(c.h.PublicKey)
		if got := len(c.h.Encode()) - prefix; got != c.trailer {
			t.Errorf("%s: %d bytes after the key, want %d", c.name, got, c.trailer)
		}
	}
}

// --- CRC frame trailer ---

func TestCRCFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrameCRC(&buf, MsgSum, []byte("precious ciphertext")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Flip each payload byte in turn: every corruption must be caught.
	for i := 5; i < len(b); i++ {
		mut := append([]byte{}, b...)
		mut[i] ^= 0x01
		if _, _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flipped byte %d: err = %v, want ErrFrameCorrupt", i, err)
		}
	}
	// A length-field flip changes the declared size; it must error some way
	// (truncation or CRC), never decode cleanly.
	mut := append([]byte{}, b...)
	mut[4] ^= 0x01
	if _, _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
		t.Fatal("length corruption decoded cleanly")
	}
}

func TestReadFrameLimitCeiling(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgSum, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()), 128); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge under lowered ceiling", err)
	}
	if _, _, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()), 512); err != nil {
		t.Fatalf("exact ceiling should pass: %v", err)
	}
}

// Mixed-version interop: a new (CRC-capable) peer talking to an old one.
// Old peers never set HelloFlagFrameCRC and never send CRC trailers; a new
// receiver must accept their plain frames, and a new sender must not send
// CRC frames unless the flag was negotiated. (The hello versions have their
// own test, TestDecodeHelloLegacyTrailer.)
func TestMixedVersionCRCInterop(t *testing.T) {
	// Old sender -> new receiver: plain frames pass through, CRC=false.
	var plain bytes.Buffer
	if _, err := WriteFrame(&plain, MsgSum, []byte("old peer")); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(&plain)
	if err != nil || f.CRC {
		t.Fatalf("plain frame through new reader: %+v, %v", f, err)
	}

	// New Conn without EnableCRC behaves exactly like an old peer on the
	// wire: no flag bit on the type byte.
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() { _ = ca.Send(MsgDone, nil) }()
	fr, err := cb.Recv()
	if err != nil || fr.CRC {
		t.Fatalf("un-negotiated conn sent CRC frame: %+v, %v", fr, err)
	}
	// After EnableCRC the same conn's frames carry (and verify) trailers.
	ca.EnableCRC()
	go func() { _ = ca.Send(MsgDone, nil) }()
	fr, err = cb.Recv()
	if err != nil || !fr.CRC {
		t.Fatalf("negotiated conn frame: %+v, %v", fr, err)
	}
}

// --- classified error codes ---

func TestErrorCodeRoundTrip(t *testing.T) {
	for _, code := range []ErrorCode{CodeBusy, CodeTimeout, CodeCorruptFrame, CodeShardUnavailable, CodeProtocol} {
		payload := EncodeErrorCode(code, "details here")
		err := DecodeError(payload)
		if got := ErrorCodeOf(err); got != code {
			t.Errorf("code %q round-tripped to %q (err: %v)", code, got, err)
		}
		if !strings.Contains(err.Error(), "details here") {
			t.Errorf("message lost: %v", err)
		}
	}
	// Uncoded payloads stay uncoded.
	if got := ErrorCodeOf(DecodeError([]byte("free text"))); got != CodeNone {
		t.Errorf("free text got code %q", got)
	}
	// Bracketed prose is not mistaken for a code.
	if got := ErrorCodeOf(DecodeError([]byte("[some Long Prose] x"))); got != CodeNone {
		t.Errorf("prose got code %q", got)
	}
}

func TestDecodeErrorBoundsAndSanitizes(t *testing.T) {
	// Oversized payloads are truncated.
	huge := bytes.Repeat([]byte("A"), 10*MaxErrorPayload)
	err := DecodeError(huge)
	if len(err.Error()) > MaxErrorPayload+64 {
		t.Errorf("err is %d bytes", len(err.Error()))
	}
	// Control bytes, newlines, and ANSI escapes are stripped.
	evil := []byte("bad\x1b[31mred\x1b[0m\nnewline\x00null")
	msg := DecodeError(evil).Error()
	for i := 0; i < len(msg); i++ {
		if msg[i] < 0x20 || msg[i] > 0x7E {
			t.Fatalf("non-printable %#x survived at %d in %q", msg[i], i, msg)
		}
	}
	if !strings.Contains(msg, "bad") || !strings.Contains(msg, "red") {
		t.Errorf("legitimate text lost: %q", msg)
	}
}

func TestEncodeErrorCodeTruncates(t *testing.T) {
	msg := strings.Repeat("x", 5000)
	b := EncodeErrorCode(CodeBusy, msg)
	if len(b) > MaxErrorPayload {
		t.Fatalf("payload is %d bytes", len(b))
	}
	if got := ErrorCodeOf(DecodeError(b)); got != CodeBusy {
		t.Errorf("truncation destroyed the code: %q", got)
	}
}

func TestErrorCodeFor(t *testing.T) {
	if got := ErrorCodeFor(ErrFrameCorrupt); got != CodeCorruptFrame {
		t.Errorf("corrupt: %q", got)
	}
	if got := ErrorCodeFor(errors.New("misc")); got != CodeNone {
		t.Errorf("misc: %q", got)
	}
	inner := &PeerError{Code: CodeBusy, Msg: "b"}
	if got := ErrorCodeFor(fmt.Errorf("wrapped: %w", inner)); got != CodeBusy {
		t.Errorf("relayed: %q", got)
	}
}

func TestHelloFlagsRoundTrip(t *testing.T) {
	h := &Hello{Version: Version, Scheme: "s", PublicKey: []byte{1}, VectorLen: 1, ChunkLen: 1, RowOffset: 9, Flags: HelloFlagFrameCRC}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != HelloFlagFrameCRC || got.RowOffset != 9 {
		t.Errorf("got %+v", got)
	}
}
