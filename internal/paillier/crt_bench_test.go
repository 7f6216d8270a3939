package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"privstats/internal/mathx"
)

// Microbenchmarks for the key owner's CRT encryption path against the public
// r^N route, across key sizes: BenchmarkEncryptCRT against
// BenchmarkEncryptPublic for a whole encryption, BenchmarkFreshRandomizerCRT
// for the z^p shortcut alone. At 512 bits the owner path runs on mathx's
// register-resident kernel where the CPU has one (see crt.go for the figures).

var benchKeys = map[int]*PrivateKey{}

func benchKey(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	if sk, ok := benchKeys[bits]; ok {
		return sk
	}
	sk, err := KeyGen(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	benchKeys[bits] = sk
	return sk
}

func benchBits(f func(b *testing.B, bits int)) func(*testing.B) {
	return func(b *testing.B) {
		for _, bits := range []int{512, 1024} {
			b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) { f(b, bits) })
		}
	}
}

func BenchmarkEncryptPublic(b *testing.B) {
	benchBits(func(b *testing.B, bits int) {
		pk := benchKey(b, bits).Public()
		m := big.NewInt(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pk.Encrypt(m); err != nil {
				b.Fatal(err)
			}
		}
	})(b)
}

func BenchmarkEncryptCRT(b *testing.B) {
	benchBits(func(b *testing.B, bits int) {
		b.ReportAllocs()
		sk := benchKey(b, bits)
		m := big.NewInt(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.EncryptCRT(m); err != nil {
				b.Fatal(err)
			}
		}
	})(b)
}

func BenchmarkFreshRandomizerCRT(b *testing.B) {
	benchBits(func(b *testing.B, bits int) {
		b.ReportAllocs()
		sk := benchKey(b, bits)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.FreshRandomizerCRT(); err != nil {
				b.Fatal(err)
			}
		}
	})(b)
}

func BenchmarkRandomizerNaive(b *testing.B) {
	benchBits(func(b *testing.B, bits int) {
		sk := benchKey(b, bits)
		r, err := mathx.RandUnit(rand.Reader, sk.N)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(r, sk.N, sk.NSquared)
		}
	})(b)
}

func BenchmarkRandomizerCRT(b *testing.B) {
	benchBits(func(b *testing.B, bits int) {
		sk := benchKey(b, bits)
		r, err := mathx.RandUnit(rand.Reader, sk.N)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.RandomizerCRT(r); err != nil {
				b.Fatal(err)
			}
		}
	})(b)
}
