package selectedsum

import (
	"crypto/rand"
	"encoding/binary"
	"math/big"
	"testing"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
)

// FuzzFoldEquivalence checks the server's streaming fold against the
// plaintext sum: random workloads of 1 to maxFuzzRows rows must decrypt to
// Σ x_i over the selected rows, however the vector is chunked on its way in
// and on however many lanes (1, 2, 3, 4 or 7) the fold runs. Every input runs
// under three keys: the 256-bit test key, whose N² is 8 words, a 512-bit
// one, whose 16-word N² is the fold on mathx's 16-word register kernel, and a
// 1024-bit one, whose 32-word, 2048-bit N² is the fold on the 32-word kernel.
// Where the CPU has the IFMA lanes all three fold there instead, on ten,
// twenty and forty limbs.
func FuzzFoldEquivalence(f *testing.F) {
	f.Add([]byte{3})
	f.Add([]byte{17, 0xff, 0x00, 0x80, 0x7f})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{16, 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff})
	// The lane fold's shapes: eight values that open eight buckets, then k
	// = 1…7 rows that multiply into them, the last lane call's products
	// when the session is one chunk.
	for k := 1; k <= 7; k++ {
		values := make([]uint32, 8+k)
		for i := range values {
			values[i] = uint32(i%8 + 1)
		}
		f.Add(foldSeed(values))
	}
	// Rows of one bucket inside one group of eight, which wait.
	f.Add(foldSeed([]uint32{11, 1, 2, 1, 3, 1, 1, 4, 1, 5, 1, 6, 1, 7, 1, 1}))
	// Windows between bit 4 and bit 28 that no row has a digit in.
	values := make([]uint32, 16)
	for i := range values {
		values[i] = uint32(i%8+1) | 1<<28
	}
	f.Add(foldSeed(values))
	sk512, err := paillier.KeyGen(rand.Reader, 512)
	if err != nil {
		f.Fatal(err)
	}
	sk1024, err := paillier.KeyGen(rand.Reader, 1024)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		count := 1 + int(data[0])%maxFuzzRows
		byteAt := func(i int) byte {
			return data[i%len(data)] ^ byte(i*151) // decorrelate reused bytes
		}
		values := make([]uint32, count)
		sel, err := database.NewSelection(count)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int)
		for i := range values {
			v := uint32(byteAt(4*i)) | uint32(byteAt(4*i+1))<<8 |
				uint32(byteAt(4*i+2))<<16 | uint32(byteAt(4*i+3))<<24
			values[i] = v
			if byteAt(4*count+i)&1 == 1 {
				sel.Set(i)
				want.Add(want, new(big.Int).SetUint64(uint64(v)))
			}
		}
		table := database.New(values)
		keys := []homomorphic.PrivateKey{testKey(t), paillier.SchemeKey{SK: sk512}, paillier.SchemeKey{SK: sk1024}}
		for _, sk := range keys {
			foldEquivalence(t, sk, table, sel, want)
		}
	})
}

// maxFuzzRows bounds a FuzzFoldEquivalence session: enough rows for every
// window shape of the lane fold's groups of eight, few enough that an input
// runs in milliseconds.
const maxFuzzRows = 16

// foldSeed encodes an input of FuzzFoldEquivalence with every row selected:
// 1–16 rows of the given values, except that the low byte of values[0] is
// the row count less one, which the input's first byte encodes.
func foldSeed(values []uint32) []byte {
	count := len(values)
	data := make([]byte, 5*count)
	for i, v := range values {
		binary.LittleEndian.PutUint32(data[4*i:], v)
		data[4*count+i] = 1
	}
	for i := range data {
		data[i] ^= byte(i * 151) // undo byteAt's decorrelation
	}
	data[0] = byte(count - 1)
	return data
}

// foldEquivalence is FuzzFoldEquivalence's check under one key: the fold
// decrypts to want for every chunking and lane count.
func foldEquivalence(t *testing.T, sk homomorphic.PrivateKey, table *database.Table, sel *database.Selection, want *big.Int) {
	count := sel.Len()
	pk := sk.PublicKey()
	width := pk.CiphertextSize()
	body, err := EncryptRange(Online{PK: pk}, sel, 0, count, width)
	if err != nil {
		t.Fatal(err)
	}

	run := func(chunkRows, lanes int) *big.Int {
		srv, err := NewShardSession(pk, table.Column(), uint64(count), 0)
		if err != nil {
			t.Fatal(err)
		}
		srv.lanes = lanes
		for lo := 0; lo < count; lo += chunkRows {
			hi := min(count, lo+chunkRows)
			if err := srv.Absorb(decodeChunk(t, body[lo*width:hi*width], uint64(lo), width)); err != nil {
				t.Fatal(err)
			}
		}
		ct, err := srv.Finalize(nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	for _, chunkRows := range foldChunkSizes(count) {
		for _, lanes := range []int{1, 2, 3, 4, 7} {
			if got := run(chunkRows, lanes); got.Cmp(want) != 0 {
				t.Fatalf("count=%d chunk=%d lanes=%d: fold decrypts to %v, direct sum is %v", count, chunkRows, lanes, got, want)
			}
		}
	}
}

// foldChunkSizes returns the distinct chunk lengths among {1, 16, 100, 1024,
// n} that chunk an n-row vector differently.
func foldChunkSizes(n int) []int {
	sizes := []int{n}
	for _, c := range []int{1024, 100, 16, 1} {
		if c < n {
			sizes = append(sizes, c)
		}
	}
	return sizes
}
