package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Trace IDs: a hello carries the 16-byte ID as one extension, sent only
// when a trace was requested.

func TestHelloTraceIDRoundTrip(t *testing.T) {
	h := &Hello{
		Version:   Version,
		Scheme:    "paillier",
		PublicKey: []byte{1, 2, 3},
		VectorLen: 100,
		ChunkLen:  10,
		RowOffset: 50,
		Flags:     HelloFlagFrameCRC,
		TraceID:   [16]byte{0xde, 0xad, 0xbe, 0xef, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
	}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != h.TraceID {
		t.Fatalf("trace ID round trip: %x != %x", got.TraceID, h.TraceID)
	}
	if !got.HasTraceID() {
		t.Fatal("HasTraceID false after round trip")
	}
	if got.Flags != h.Flags || got.RowOffset != h.RowOffset || got.VectorLen != h.VectorLen {
		t.Fatalf("co-travelling fields damaged: %+v", got)
	}
}

func TestConnTraceID(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(struct {
		*bytes.Buffer
	}{&buf})
	if c.TraceID() != ([16]byte{}) {
		t.Fatal("fresh conn has a trace ID")
	}
	id := [16]byte{9, 8, 7}
	c.SetTraceID(id)
	if c.TraceID() != id {
		t.Fatalf("TraceID = %x, want %x", c.TraceID(), id)
	}
}

// TestMixedVersionTraceInterop mirrors TestMixedVersionCRCInterop for the
// trace extension: a hello that requests no trace sends no trace bytes, a
// traced one adds exactly the 16-byte ID and forces no other extension out,
// and a hello from an old (trace-less) client, the Version 1 12-byte form
// included, decodes with the zero ID: no trace, never a protocol error.
func TestMixedVersionTraceInterop(t *testing.T) {
	base := &Hello{Version: Version, Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5}

	untraced := base.Encode()
	traced := *base
	traced.TraceID = [16]byte{1}
	tracedEnc := traced.Encode()
	if len(tracedEnc) != len(untraced)+16 {
		t.Fatalf("traced hello is %d bytes, untraced %d; want +16", len(tracedEnc), len(untraced))
	}

	for _, b := range [][]byte{
		versionOneHello(base, binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, base.VectorLen), base.ChunkLen)),
		untraced,
		(&Hello{Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5, RowOffset: 3}).Encode(),
		(&Hello{Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5, Flags: HelloFlagFrameCRC}).Encode(),
	} {
		got, err := DecodeHello(b)
		if err != nil {
			t.Fatalf("trace-less hello rejected: %v", err)
		}
		if got.HasTraceID() {
			t.Fatalf("trace-less hello sprouted a trace ID: %x", got.TraceID)
		}
	}

	got, err := DecodeHello(tracedEnc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != traced.TraceID || got.Flags != 0 || got.RowOffset != 0 || got.Columns != 0 {
		t.Fatalf("traced decode: %+v", got)
	}
}
