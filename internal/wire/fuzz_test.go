package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// Fuzz targets for the wire parsers: whatever the bytes, decoding must
// never panic, and anything that decodes must re-encode to an equivalent
// value. `go test` runs the seed corpus; `go test -fuzz=FuzzX` explores.

func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_, _ = WriteFrame(&seed, MsgHello, []byte("seed payload"))
	f.Add(seed.Bytes())
	var crcSeed bytes.Buffer
	_, _ = WriteFrameCRC(&crcSeed, MsgSum, []byte("crc seed"))
	f.Add(crcSeed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("claimed to read %d of %d bytes", n, len(data))
		}
		// Round trip: re-encoding the decoded frame with the framing it
		// arrived in must reproduce the consumed bytes. (A CRC frame that
		// decoded has, by construction, a valid trailer to reproduce.)
		var buf bytes.Buffer
		var wn int
		if fr.CRC {
			wn, err = WriteFrameCRC(&buf, fr.Type, fr.Payload)
		} else {
			wn, err = WriteFrame(&buf, fr.Type, fr.Payload)
		}
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if wn != n || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatal("re-encoded frame differs from consumed bytes")
		}
	})
}

// FuzzRecvReused is differential: a stream read frame by frame through
// ReadFrame and through a connection's reused buffer (RecvReused) gives the
// same types, CRC flags, payloads, byte counts and errors. A frame shorter
// than the one before it must show none of the longer frame's bytes.
func FuzzRecvReused(f *testing.F) {
	var stream bytes.Buffer
	_, _ = WriteFrame(&stream, MsgIndexChunk, bytes.Repeat([]byte{0xee}, 300))
	_, _ = WriteFrameCRC(&stream, MsgIndexChunk, []byte("short after long"))
	_, _ = WriteFrame(&stream, MsgDone, nil)
	_, _ = WriteFrameCRC(&stream, MsgSum, bytes.Repeat([]byte{0x11}, 400))
	_, _ = WriteFrame(&stream, MsgError, []byte("x"))
	good := stream.Bytes()
	f.Add(good)
	corrupt := bytes.Clone(good)
	corrupt[5+300+5+3] ^= 0x40 // inside the CRC frame's payload
	f.Add(corrupt)
	f.Add(good[:len(good)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := bytes.NewReader(data)
		conn := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		total := 0
		for i := 0; ; i++ {
			want, n, wantErr := ReadFrame(fresh)
			got, gotErr := conn.RecvReused()
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("frame %d: ReadFrame error %v, RecvReused error %v", i, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if got.Type != want.Type || got.CRC != want.CRC || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d: RecvReused gave %#x crc=%v %q, ReadFrame %#x crc=%v %q", i, got.Type, got.CRC, got.Payload, want.Type, want.CRC, want.Payload)
			}
			total += n
			if _, in, _, _ := conn.Meter.Snapshot(); in != int64(total) {
				t.Fatalf("frame %d: metered %d bytes in, ReadFrame consumed %d", i, in, total)
			}
		}
	})
}

func FuzzDecodeErrorPayload(f *testing.F) {
	f.Add([]byte("[busy] server busy"))
	f.Add([]byte("plain text error"))
	f.Add([]byte("[not a code] bracketed prose"))
	f.Add(bytes.Repeat([]byte{0x1B}, 2048)) // oversized ANSI-escape bomb
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		err := DecodeError(data)
		if err == nil {
			t.Fatal("DecodeError returned nil")
		}
		msg := err.Error()
		// Bounded: the sanitized text cannot exceed the payload cap plus
		// the fixed "wire: peer error: " / "[code] " dressing.
		if len(msg) > MaxErrorPayload+64 {
			t.Fatalf("error message is %d bytes", len(msg))
		}
		// Printable: nothing outside 0x20..0x7E may survive sanitization.
		for i := 0; i < len(msg); i++ {
			if msg[i] < 0x20 || msg[i] > 0x7E {
				t.Fatalf("non-printable byte %#x at %d", msg[i], i)
			}
		}
		// A recognized code must be one the encoder can reproduce within
		// bounds: re-encoding the decoded error stays under the cap.
		code := ErrorCodeOf(err)
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatal("DecodeError did not return a *PeerError")
		}
		if re := EncodeErrorCode(code, pe.Msg); len(re) > MaxErrorPayload {
			t.Fatalf("re-encoded payload is %d bytes", len(re))
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	h := Hello{Scheme: "paillier", PublicKey: []byte{1, 2}, VectorLen: 9, ChunkLen: 3}
	f.Add(h.Encode())
	f.Add([]byte{})
	// One seed per presence bit, then all of them.
	all := h
	for _, set := range []func(*Hello){
		func(h *Hello) { h.RowOffset = 7 },
		func(h *Hello) { h.Flags = HelloFlagFrameCRC },
		func(h *Hello) { h.TraceID = [16]byte{1, 2, 3, 4} },
		func(h *Hello) { h.Columns = ColValue | ColSquare },
		func(h *Hello) { h.KeyFingerprint = [32]byte{5, 6} },
	} {
		one := h
		set(&one)
		set(&all)
		f.Add(one.Encode())
	}
	f.Add(all.Encode())
	f.Add(versionOneHello(&h, make([]byte, 12)))
	unknown := h.Encode()
	unknown[len(unknown)-1] = 1 << 5
	f.Add(unknown)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeHello(data)
		if err != nil {
			return
		}
		// Anything that decodes must survive a value round trip, with the
		// version normalized: a Version 1 hello re-encodes as Version 2. A
		// Version 2 hello has exactly one encoding, the one it came in.
		enc := got.Encode()
		if got.Version == Version && !bytes.Equal(enc, data) {
			t.Fatalf("hello %x re-encodes as %x", data, enc)
		}
		again, err := DecodeHello(enc)
		if err != nil {
			t.Fatalf("re-encoded hello does not decode: %v", err)
		}
		want := *got
		want.Version = Version
		if !reflect.DeepEqual(*again, want) {
			t.Fatal("hello round trip not value-preserving")
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("canonical hello encoding is not a fixed point")
		}
	})
}

func FuzzDecodeIndexChunk(f *testing.F) {
	c := IndexChunk{Offset: 7, Ciphertexts: make([]byte, 32), Width: 16}
	f.Add(c.Encode(), 16)
	f.Add([]byte{}, 1)
	f.Add(make([]byte, 9), 0)
	f.Fuzz(func(t *testing.T, data []byte, width int) {
		got, err := DecodeIndexChunk(data, width)
		if err != nil {
			return
		}
		if got.Count() < 0 {
			t.Fatal("negative count")
		}
		for i := 0; i < got.Count(); i++ {
			if len(got.At(i)) != width {
				t.Fatalf("ciphertext %d has %d bytes", i, len(got.At(i)))
			}
		}
	})
}
