package stock

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"privstats/internal/paillier"
	"privstats/internal/wire"
)

// stockHello is the hello RemoteSource sends: a wire.Hello with the key's
// fingerprint and, on a CRC session, the CRC flag.
func stockHello(key []byte) *wire.Hello {
	return &wire.Hello{
		Scheme:         paillier.SchemeID,
		PublicKey:      key,
		Flags:          wire.HelloFlagFrameCRC,
		KeyFingerprint: sha256.Sum256(key),
	}
}

func TestHelloRoundTrip(t *testing.T) {
	key := []byte("not-a-real-key-but-bytes-suffice")
	h := stockHello(key)
	b := h.Encode()
	back, err := wire.DecodeHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != wire.Version || back.Scheme != h.Scheme ||
		!bytes.Equal(back.PublicKey, h.PublicKey) ||
		back.KeyFingerprint != h.KeyFingerprint || back.Flags != h.Flags {
		t.Fatalf("round trip: %+v != %+v", back, h)
	}
	// Prefix, the 12-byte core, the presence byte, flags and fingerprint.
	if want := 4 + 4 + len(h.Scheme) + 4 + len(key) + 12 + 1 + 4 + 32; len(b) != want {
		t.Errorf("stock hello is %d bytes, want %d", len(b), want)
	}
}

func TestDecodeHelloRejectsMalformed(t *testing.T) {
	good := stockHello([]byte("key")).Encode()
	cases := map[string][]byte{
		"empty":               {},
		"short header":        good[:6],
		"truncated key":       good[:4+4+len(paillier.SchemeID)+4+2],
		"truncated fp":        good[:len(good)-1],
		"missing fingerprint": good[:len(good)-32],
		"trailing garbage":    append(append([]byte{}, good...), 0xFF),
	}
	// Scheme length far past the buffer.
	huge := append([]byte{}, good...)
	huge[4], huge[5], huge[6], huge[7] = 0xFF, 0xFF, 0xFF, 0xFF
	cases["absurd scheme length"] = huge

	for name, b := range cases {
		if _, err := wire.DecodeHello(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	a := HelloAck{Version: Version, Fingerprint: sha256.Sum256([]byte("k"))}
	back, err := DecodeHelloAck(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != a.Version || back.Fingerprint != a.Fingerprint {
		t.Fatalf("round trip: %+v != %+v", back, a)
	}
	for _, b := range [][]byte{nil, a.Encode()[:35], append(a.Encode(), 0)} {
		if _, err := DecodeHelloAck(b); err == nil {
			t.Errorf("accepted %d-byte ack", len(b))
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindZeroBits, KindOneBits} {
		r := Request{Kind: k, Count: 17}
		back, err := DecodeRequest(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind != k || back.Count != 17 {
			t.Fatalf("round trip: %+v", back)
		}
	}
	bad := map[string][]byte{
		"empty":        {},
		"short":        {0, 0, 0, 1},
		"long":         {0, 0, 0, 0, 1, 0},
		"retired kind": (&Request{Kind: 2, Count: 1}).Encode(),
		"unknown kind": (&Request{Kind: 9, Count: 1}).Encode(),
		"zero count":   (&Request{Kind: 0, Count: 0}).Encode(),
		"over cap":     (&Request{Kind: 0, Count: MaxBatchItems + 1}).Encode(),
	}
	for name, b := range bad {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{Kind: KindOneBits, Width: 4, Items: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	back, err := DecodeBatch(b.Encode(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != b.Kind || back.Count() != 2 ||
		!bytes.Equal(back.At(0), []byte{1, 2, 3, 4}) || !bytes.Equal(back.At(1), []byte{5, 6, 7, 8}) {
		t.Fatalf("round trip: %+v", back)
	}
	// Empty batches (daemon out of stock) round trip too.
	empty := &Batch{Kind: KindZeroBits, Width: 4}
	back, err = DecodeBatch(empty.Encode(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 {
		t.Fatalf("empty batch has %d items", back.Count())
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	good := (&Batch{Kind: KindZeroBits, Width: 4, Items: make([]byte, 8)}).Encode()
	if _, err := DecodeBatch(good[:3], 4); err == nil {
		t.Error("short batch accepted")
	}
	if _, err := DecodeBatch(good, 8); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := DecodeBatch(good[:len(good)-1], 4); err == nil {
		t.Error("ragged body accepted")
	}
	badKind := append([]byte{}, good...)
	badKind[0] = 7
	if _, err := DecodeBatch(badKind, 4); err == nil {
		t.Error("unknown kind accepted")
	}
	over := (&Batch{Kind: KindZeroBits, Width: 1, Items: make([]byte, MaxBatchItems+1)}).Encode()
	if _, err := DecodeBatch(over, 1); err == nil {
		t.Error("over-cap batch accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindZeroBits: "zero-bits", KindOneBits: "one-bits",
	} {
		if k.String() != want || !k.Valid() {
			t.Errorf("kind %d: %q valid=%v", k, k.String(), k.Valid())
		}
	}
	if Kind(2).Valid() || !strings.Contains(Kind(2).String(), "unknown") {
		t.Error("kind 2 must be invalid")
	}
}

// FuzzStockProtocol feeds arbitrary bytes to the three decoders that parse
// a stock session's frames straight off the network. Whatever a decoder
// accepts re-encodes to exactly the bytes it was given, but for a Version 1
// hello, and no kind but the two bit kinds gets through.
func FuzzStockProtocol(f *testing.F) {
	key := []byte("not-a-real-key-but-bytes-suffice")
	f.Add(stockHello(key).Encode())
	f.Add((&HelloAck{Version: Version, Fingerprint: sha256.Sum256(key)}).Encode())
	for _, k := range []Kind{KindZeroBits, KindOneBits, 2, 9} {
		f.Add((&Request{Kind: k, Count: 17}).Encode())
		f.Add((&Batch{Kind: k, Width: 4, Items: []byte{1, 2, 3, 4, 5, 6, 7, 8}}).Encode())
	}
	f.Add((&Batch{Kind: KindZeroBits, Width: 4}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		// A Version 1 hello re-encodes as Version 2.
		if h, err := wire.DecodeHello(b); err == nil && h.Version == wire.Version && !bytes.Equal(h.Encode(), b) {
			t.Fatalf("hello %x re-encodes as %x", b, h.Encode())
		}
		if r, err := DecodeRequest(b); err == nil {
			if r.Kind > KindOneBits {
				t.Fatalf("request %x accepted with kind %d", b, r.Kind)
			}
			if !bytes.Equal(r.Encode(), b) {
				t.Fatalf("request %x re-encodes as %x", b, r.Encode())
			}
		}
		// A session takes the batch width from its key; the width the
		// payload declares is the one a batch can be accepted at.
		if len(b) < 5 {
			return
		}
		width := int(binary.BigEndian.Uint32(b[1:]))
		if bt, err := DecodeBatch(b, width); err == nil {
			if bt.Kind > KindOneBits {
				t.Fatalf("batch %x accepted with kind %d", b, bt.Kind)
			}
			if !bytes.Equal(bt.Encode(), b) {
				t.Fatalf("batch %x re-encodes as %x", b, bt.Encode())
			}
		}
	})
}
