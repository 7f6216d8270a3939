// Package mathx provides the modular-arithmetic substrate used by the
// homomorphic cryptosystems in this repository.
//
// Everything here is built on math/big from the standard library. The
// package adds the handful of number-theoretic operations the cryptosystems
// need but the standard library does not expose directly: sampling uniform
// residues and units, CRT recombination, L-function evaluation for Paillier,
// fixed-base windowed exponentiation for hot exponentiation paths, and
// prime-pair generation for RSA-style moduli.
//
// None of the routines in this package are constant-time; like the systems
// measured in the paper this code targets the semi-honest model and
// benchmarking, not side-channel resistance.
package mathx

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common small constants. These are shared read-only values; callers must
// not mutate them.
var (
	Zero  = big.NewInt(0)
	One   = big.NewInt(1)
	Two   = big.NewInt(2)
	Three = big.NewInt(3)
	Four  = big.NewInt(4)
)

// ErrNotInvertible is returned when a modular inverse does not exist.
var ErrNotInvertible = errors.New("mathx: element is not invertible")

// ErrBadModulus is returned when a modulus is nil, zero, or negative, and
// wrapped by the bucket fold, whose kernel needs an odd one, for an even one.
var ErrBadModulus = errors.New("mathx: modulus must be a positive integer")

// RandInt returns a uniform random integer in [0, max). It panics if
// max <= 0; crypto/rand failures are returned as errors.
func RandInt(r io.Reader, max *big.Int) (*big.Int, error) {
	if max == nil || max.Sign() <= 0 {
		return nil, fmt.Errorf("mathx: RandInt upper bound must be positive, got %v", max)
	}
	v, err := rand.Int(r, max)
	if err != nil {
		return nil, fmt.Errorf("mathx: sampling random integer: %w", err)
	}
	return v, nil
}

// RandUnit returns a uniform random element of the multiplicative group
// Z*_n, i.e. a value in [1, n) with gcd(v, n) = 1.
//
// For an RSA-style modulus n = p·q with large prime factors, rejection is
// astronomically rare, so the loop almost always runs once.
func RandUnit(r io.Reader, n *big.Int) (*big.Int, error) {
	if n == nil || n.Sign() <= 0 {
		return nil, ErrBadModulus
	}
	if n.Cmp(One) == 0 {
		return nil, fmt.Errorf("mathx: Z*_1 is empty: %w", ErrBadModulus)
	}
	gcd := new(big.Int)
	for i := 0; i < 1000; i++ {
		v, err := RandInt(r, n)
		if err != nil {
			return nil, err
		}
		if v.Sign() == 0 {
			continue
		}
		gcd.GCD(nil, nil, v, n)
		if gcd.Cmp(One) == 0 {
			return v, nil
		}
	}
	return nil, errors.New("mathx: could not sample a unit after 1000 attempts (modulus is overly smooth)")
}

// ModInverse returns a^-1 mod n, or ErrNotInvertible if gcd(a, n) != 1.
func ModInverse(a, n *big.Int) (*big.Int, error) {
	if n == nil || n.Sign() <= 0 {
		return nil, ErrBadModulus
	}
	inv := new(big.Int).ModInverse(a, n)
	if inv == nil {
		return nil, fmt.Errorf("mathx: inverse of %v mod %v: %w", a, n, ErrNotInvertible)
	}
	return inv, nil
}

// Lcm returns the least common multiple of a and b.
func Lcm(a, b *big.Int) *big.Int {
	if a.Sign() == 0 || b.Sign() == 0 {
		return new(big.Int)
	}
	gcd := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, gcd)
	out.Mul(out, b)
	return out.Abs(out)
}

// L is Paillier's L-function: L(u) = (u - 1) / n. The function requires
// u ≡ 1 (mod n); it returns an error otherwise, because a non-exact
// division here always indicates key or ciphertext corruption.
func L(u, n *big.Int) (*big.Int, error) {
	num := new(big.Int).Sub(u, One)
	quo, rem := new(big.Int).QuoRem(num, n, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("mathx: L(u): u-1 is not divisible by n (corrupt ciphertext or wrong key)")
	}
	return quo, nil
}

// GeneratePrime returns a random prime with exactly bits bits. It retries
// until crypto/rand yields a prime, mirroring crypto/rand.Prime but keeping
// an explicit error path.
func GeneratePrime(r io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, fmt.Errorf("mathx: refusing to generate a %d-bit prime (minimum 16)", bits)
	}
	p, err := rand.Prime(r, bits)
	if err != nil {
		return nil, fmt.Errorf("mathx: generating %d-bit prime: %w", bits, err)
	}
	return p, nil
}

// GeneratePrimePair returns two distinct primes p, q of bits bits each whose
// product has exactly 2·bits bits, suitable as an RSA/Paillier modulus.
// For Paillier with g = n+1 we additionally need gcd(n, φ(n)) = 1, which
// holds whenever p and q are distinct primes of the same bit length greater
// than 2; the check is performed explicitly anyway.
func GeneratePrimePair(r io.Reader, bits int) (p, q *big.Int, err error) {
	if bits < 16 {
		return nil, nil, fmt.Errorf("mathx: refusing %d-bit prime pair (minimum 16)", bits)
	}
	n := new(big.Int)
	phi := new(big.Int)
	gcd := new(big.Int)
	pm1 := new(big.Int)
	qm1 := new(big.Int)
	for attempt := 0; attempt < 1000; attempt++ {
		p, err = GeneratePrime(r, bits)
		if err != nil {
			return nil, nil, err
		}
		q, err = GeneratePrime(r, bits)
		if err != nil {
			return nil, nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n.Mul(p, q)
		if n.BitLen() != 2*bits {
			continue
		}
		pm1.Sub(p, One)
		qm1.Sub(q, One)
		phi.Mul(pm1, qm1)
		if gcd.GCD(nil, nil, n, phi).Cmp(One) != 0 {
			continue
		}
		return p, q, nil
	}
	return nil, nil, errors.New("mathx: failed to generate a usable prime pair after 1000 attempts")
}
