package paillier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// Wire formats for keys. Both encodings are sequences of length-prefixed
// big-endian integers behind a magic/version header, so files and network
// messages fail loudly on corruption or version skew.

const (
	pubKeyMagic  = "PSPK" // privstats Paillier public key
	privKeyMagic = "PSSK" // privstats Paillier secret key
	keyVersion   = 1
)

var errTruncatedKey = errors.New("paillier: truncated key encoding")

func appendBig(b []byte, v *big.Int) []byte {
	raw := v.Bytes()
	b = binary.BigEndian.AppendUint32(b, uint32(len(raw)))
	return append(b, raw...)
}

func readBig(b []byte) (*big.Int, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errTruncatedKey
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, errTruncatedKey
	}
	return new(big.Int).SetBytes(b[:n]), b[n:], nil
}

// MarshalBinary encodes the public key.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	if pk.N == nil || pk.N.Sign() <= 0 {
		return nil, errors.New("paillier: cannot marshal zero public key")
	}
	b := make([]byte, 0, 8+pk.N.BitLen()/8+8)
	b = append(b, pubKeyMagic...)
	b = binary.BigEndian.AppendUint32(b, keyVersion)
	b = appendBig(b, pk.N)
	return b, nil
}

// UnmarshalBinary decodes a public key produced by MarshalBinary and
// recomputes the cached values.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, pubKeyMagic)
	if err != nil {
		return err
	}
	n, rest, err := readBig(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("paillier: trailing bytes after public key")
	}
	if n.BitLen() < MinModulusBits {
		return fmt.Errorf("paillier: unmarshaled modulus too small (%d bits)", n.BitLen())
	}
	fresh, err := newPublicKey(n)
	if err != nil {
		return err
	}
	*pk = fresh
	return nil
}

// MarshalBinary encodes the private key as (P, Q); everything else is
// rederived on load, so the encoding cannot go internally inconsistent.
func (sk *PrivateKey) MarshalBinary() ([]byte, error) {
	if sk.P == nil || sk.Q == nil {
		return nil, errors.New("paillier: cannot marshal incomplete private key")
	}
	b := make([]byte, 0, 8+sk.P.BitLen()/4)
	b = append(b, privKeyMagic...)
	b = binary.BigEndian.AppendUint32(b, keyVersion)
	b = appendBig(b, sk.P)
	b = appendBig(b, sk.Q)
	return b, nil
}

// UnmarshalBinary decodes a private key and rederives all cached values,
// validating primality of the factors.
func (sk *PrivateKey) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, privKeyMagic)
	if err != nil {
		return err
	}
	p, rest, err := readBig(rest)
	if err != nil {
		return err
	}
	q, rest, err := readBig(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("paillier: trailing bytes after private key")
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return errors.New("paillier: unmarshaled key factors are not prime")
	}
	fresh, err := newPrivateKey(p, q)
	if err != nil {
		return fmt.Errorf("paillier: rebuilding private key: %w", err)
	}
	*sk = *fresh
	return nil
}

func checkHeader(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, errTruncatedKey
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("paillier: bad key magic %q", data[:len(magic)])
	}
	v := binary.BigEndian.Uint32(data[len(magic):])
	if v != keyVersion {
		return nil, fmt.Errorf("paillier: unsupported key version %d", v)
	}
	return data[len(magic)+4:], nil
}
