package yao

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"privstats/internal/mathx"
)

// A real 1-of-2 oblivious transfer in the Even–Goldreich–Lempel style over
// RSA, used to hand the garbled-circuit evaluator its input-wire labels:
// the receiver learns exactly one of the sender's two messages and the
// sender cannot tell which. This grounds the cost model's OTPerBit constant
// with a measured protocol instead of a proxy, and together with Garble and
// Evaluate makes the package a complete (toy, semi-honest) two-party
// computation system.
//
// Protocol: the sender publishes an RSA key (n, e) and two random values
// x0, x1. The receiver picks a random k, sets v = x_b + k^e mod n for its
// choice bit b, and sends v. The sender computes k_i = (v − x_i)^d for both
// i and replies with m_i ⊕ H(k_i). The receiver can strip the mask only on
// its chosen branch — the other k is an RSA preimage it cannot compute.

// OTSender holds the sender's RSA key and offers.
type OTSender struct {
	n, e, d  *big.Int
	x0, x1   *big.Int
	byteLen  int
	msgBytes int
}

// OTMessageSize is the fixed message width transferred by this OT — one
// wire label.
const OTMessageSize = labelSize

// NewOTSender generates a fresh RSA instance of modulusBits and the two
// public random offers.
func NewOTSender(modulusBits int) (*OTSender, error) {
	if modulusBits < 64 {
		return nil, fmt.Errorf("yao: OT modulus must be >= 64 bits, got %d", modulusBits)
	}
	p, q, err := mathx.GeneratePrimePair(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, fmt.Errorf("yao: OT key generation: %w", err)
	}
	n := new(big.Int).Mul(p, q)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, mathx.One), new(big.Int).Sub(q, mathx.One))
	e := big.NewInt(65537)
	d, err := mathx.ModInverse(e, phi)
	if err != nil {
		// gcd(65537, φ) ≠ 1 — retry with fresh primes.
		return NewOTSender(modulusBits)
	}
	x0, err := mathx.RandInt(rand.Reader, n)
	if err != nil {
		return nil, err
	}
	x1, err := mathx.RandInt(rand.Reader, n)
	if err != nil {
		return nil, err
	}
	return &OTSender{
		n: n, e: e, d: d, x0: x0, x1: x1,
		byteLen: (n.BitLen() + 7) / 8,
	}, nil
}

// PublicParams returns what the receiver needs: n, e, x0, x1.
func (s *OTSender) PublicParams() (n, e, x0, x1 *big.Int) {
	return new(big.Int).Set(s.n), new(big.Int).Set(s.e), new(big.Int).Set(s.x0), new(big.Int).Set(s.x1)
}

// OTRequest is the receiver's blinded choice.
type OTRequest struct {
	V *big.Int
}

// OTReceiver holds the receiver's secret k until the response arrives.
type OTReceiver struct {
	n, k   *big.Int
	choice uint
}

// NewOTRequest blinds the receiver's choice bit against the sender's
// public parameters.
func NewOTRequest(n, e, x0, x1 *big.Int, choice uint) (*OTReceiver, *OTRequest, error) {
	if choice > 1 {
		return nil, nil, fmt.Errorf("yao: OT choice must be 0 or 1, got %d", choice)
	}
	k, err := mathx.RandInt(rand.Reader, n)
	if err != nil {
		return nil, nil, err
	}
	ke := new(big.Int).Exp(k, e, n)
	x := x0
	if choice == 1 {
		x = x1
	}
	v := new(big.Int).Add(x, ke)
	v.Mod(v, n)
	return &OTReceiver{n: n, k: k, choice: choice}, &OTRequest{V: v}, nil
}

// OTResponse carries both masked messages.
type OTResponse struct {
	M0, M1 [OTMessageSize]byte
}

// Respond answers a request with both messages masked under the respective
// derived keys. The sender learns nothing about the receiver's choice: v is
// uniformly distributed either way.
func (s *OTSender) Respond(req *OTRequest, m0, m1 [OTMessageSize]byte) (*OTResponse, error) {
	if req == nil || req.V == nil || req.V.Sign() < 0 || req.V.Cmp(s.n) >= 0 {
		return nil, errors.New("yao: malformed OT request")
	}
	k0 := new(big.Int).Sub(req.V, s.x0)
	k0.Mod(k0, s.n)
	k0.Exp(k0, s.d, s.n)
	k1 := new(big.Int).Sub(req.V, s.x1)
	k1.Mod(k1, s.n)
	k1.Exp(k1, s.d, s.n)

	var resp OTResponse
	mask0 := otMask(k0, 0)
	mask1 := otMask(k1, 1)
	for i := 0; i < OTMessageSize; i++ {
		resp.M0[i] = m0[i] ^ mask0[i]
		resp.M1[i] = m1[i] ^ mask1[i]
	}
	return &resp, nil
}

// Open recovers the chosen message from the response.
func (r *OTReceiver) Open(resp *OTResponse) ([OTMessageSize]byte, error) {
	var out [OTMessageSize]byte
	if resp == nil {
		return out, errors.New("yao: nil OT response")
	}
	mask := otMask(r.k, r.choice)
	src := resp.M0
	if r.choice == 1 {
		src = resp.M1
	}
	for i := 0; i < OTMessageSize; i++ {
		out[i] = src[i] ^ mask[i]
	}
	return out, nil
}

// otMask derives a message mask from an OT key and the branch index.
func otMask(k *big.Int, branch uint) [OTMessageSize]byte {
	h := sha256.New()
	h.Write(k.Bytes())
	h.Write([]byte{byte(branch)})
	var out [OTMessageSize]byte
	copy(out[:], h.Sum(nil))
	return out
}
