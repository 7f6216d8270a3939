package wire

import (
	"encoding/binary"
	"testing"
)

// Column sets: a hello carries the set as one extension, sent only when a
// non-default set was requested.

func TestColumnSetHelpers(t *testing.T) {
	cases := []struct {
		set   ColumnSet
		count int
		valid bool
		str   string
	}{
		{0, 1, true, "value"},
		{ColValue, 1, true, "value"},
		{ColSquare, 1, true, "square"},
		{ColValue | ColSquare, 2, true, "value|square"},
		{ColValue | ColOnes, 2, true, "value|ones"},
		{ColValue | ColSquare | ColOnes, 3, true, "value|square|ones"},
		{1 << 9, 1, false, "unknown(0x200)"},
	}
	for _, c := range cases {
		if got := c.set.Count(); got != c.count {
			t.Errorf("%#x.Count() = %d, want %d", uint32(c.set), got, c.count)
		}
		if got := c.set.Valid(); got != c.valid {
			t.Errorf("%#x.Valid() = %v, want %v", uint32(c.set), got, c.valid)
		}
		if got := c.set.String(); got != c.str {
			t.Errorf("%#x.String() = %q, want %q", uint32(c.set), got, c.str)
		}
	}
}

func TestHelloColumnsRoundTrip(t *testing.T) {
	h := &Hello{
		Version:   Version,
		Scheme:    "paillier",
		PublicKey: []byte{1, 2, 3},
		VectorLen: 64,
		ChunkLen:  8,
		RowOffset: 32,
		Flags:     HelloFlagFrameCRC,
		TraceID:   [16]byte{1, 2, 3, 4},
		Columns:   ColValue | ColSquare,
	}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Columns != h.Columns {
		t.Fatalf("columns round trip: %v != %v", got.Columns, h.Columns)
	}
	if got.TraceID != h.TraceID || got.Flags != h.Flags || got.RowOffset != h.RowOffset {
		t.Fatalf("co-travelling fields damaged: %+v", got)
	}
}

// TestMixedVersionColumnsInterop mirrors TestMixedVersionTraceInterop: a
// hello asking for the default column set sends no column bytes, a columns
// hello adds exactly the 4-byte set and forces neither flags nor a trace
// out, and every hello without the extension, the Version 1 12-byte form
// included, decodes with the zero set, which EffectiveColumns resolves to
// the value column.
func TestMixedVersionColumnsInterop(t *testing.T) {
	base := &Hello{Version: Version, Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5}

	plain := base.Encode()
	multi := *base
	multi.Columns = ColValue | ColSquare | ColOnes
	multiEnc := multi.Encode()
	if len(multiEnc) != len(plain)+4 {
		t.Fatalf("columns hello is %d bytes, plain %d; want +4", len(multiEnc), len(plain))
	}

	for _, b := range [][]byte{
		versionOneHello(base, binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, base.VectorLen), base.ChunkLen)),
		plain,
		(&Hello{Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5, RowOffset: 3}).Encode(),
		(&Hello{Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5, Flags: HelloFlagFrameCRC}).Encode(),
		(&Hello{Scheme: "paillier", PublicKey: []byte{1}, VectorLen: 10, ChunkLen: 5, TraceID: [16]byte{7}}).Encode(),
	} {
		got, err := DecodeHello(b)
		if err != nil {
			t.Fatalf("hello without columns rejected: %v", err)
		}
		if got.Columns != 0 {
			t.Fatalf("hello without columns sprouted columns: %v", got.Columns)
		}
		if got.EffectiveColumns() != ColValue {
			t.Fatalf("EffectiveColumns() = %v, want value", got.EffectiveColumns())
		}
	}

	got, err := DecodeHello(multiEnc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Columns != multi.Columns || got.Flags != 0 || got.HasTraceID() {
		t.Fatalf("columns decode: %+v", got)
	}
}
