// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT '99), the additively homomorphic scheme used by the
// paper's private selected-sum protocol.
//
// The implementation uses the standard g = n+1 simplification, which makes
// encryption a single modular exponentiation:
//
//	E(m; r) = (1 + m·n) · r^n  mod n²
//
// Decryption uses the Chinese Remainder Theorem over p and q by default
// (roughly 3–4× faster than the textbook λ/μ path); the textbook path is
// retained as DecryptNaive for the implementation-constant ablation
// (experiment E9 in DESIGN.md).
//
// Key sizes: the paper uses 512-bit keys ("Cryptographic keys are 512
// bits"), i.e. a 512-bit modulus n. KeyGen takes the modulus bit length.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"privstats/internal/mathx"
)

// MinModulusBits is the smallest modulus KeyGen accepts. Far below any
// secure size — small keys are allowed so tests stay fast — but large enough
// that the arithmetic identities hold and 32-bit data sums do not overflow
// the plaintext space.
const MinModulusBits = 64

// Common errors.
var (
	ErrMessageRange   = errors.New("paillier: message outside plaintext space [0, n)")
	ErrCiphertextForm = errors.New("paillier: malformed ciphertext")
	ErrKeyMismatch    = errors.New("paillier: ciphertext does not belong to this key")
	ErrNonceRange     = errors.New("paillier: nonce must be in [1, N)")
	ErrNonceNotUnit   = errors.New("paillier: nonce shares a factor with N")
)

// PublicKey holds the Paillier public parameters.
type PublicKey struct {
	// N is the RSA-style modulus p·q; the plaintext space is Z_N.
	N *big.Int
	// NSquared is N², the ciphertext modulus (cached).
	NSquared *big.Int

	byteLen int // ceil(bits(N²)/8), fixed wire width of a ciphertext
	// n2 multiplies mod N² without dividing, and batch hands out r^N mod N²
	// for Encrypt and Rerandomize. Keys from KeyGen or an Unmarshal share
	// both with every key of their N (randomizers.go); see reducer and
	// randomizer for the others.
	n2    *mathx.Reducer
	batch *randomizers
}

// PrivateKey holds the Paillier private parameters along with the
// precomputed CRT values that make decryption fast.
type PrivateKey struct {
	PublicKey

	// P and Q are the prime factors of N.
	P, Q *big.Int
	// Lambda is lcm(P-1, Q-1) and Mu = L(g^Lambda mod N²)^-1 mod N;
	// these drive the textbook decryption path.
	Lambda, Mu *big.Int

	// CRT decryption state: for x = p or q,
	//   m_x = L_x(c^(x-1) mod x²) · h_x  mod x
	// with L_x(u) = (u-1)/x and h_x = L_x(g^(x-1) mod x²)^-1 mod x,
	// recombined with crt.
	pSquared, qSquared *big.Int
	pMinus1, qMinus1   *big.Int
	hp, hq             *big.Int
	crt                *mathx.CRT

	// CRT encryption state (the client-side mirror of the decryption
	// fields): crt2 recombines residues mod p² and q² into a residue mod
	// N², and nModPOrd/nModQOrd hold N reduced mod the group orders
	// p·(p-1) and q·(q-1) of Z*_{p²} and Z*_{q²}. See crt.go.
	crt2               *mathx.CRT
	nModPOrd, nModQOrd *big.Int

	// p2 and q2 exponentiate mod p² and q²: every owner exponentiation,
	// decryption's and encryption's, goes through them (mathx.Reducer.Exp
	// and ExpEach).
	p2, q2 *mathx.Reducer

	// fresh holds FreshRandomizerCRT's refills (crt.go). It is a pointer
	// because UnmarshalBinary copies the struct.
	fresh *randomizers
}

// KeyGen generates a Paillier key pair whose modulus N has exactly
// modulusBits bits, reading randomness from r (pass crypto/rand.Reader).
func KeyGen(r io.Reader, modulusBits int) (*PrivateKey, error) {
	if modulusBits < MinModulusBits {
		return nil, fmt.Errorf("paillier: modulus must be at least %d bits, got %d", MinModulusBits, modulusBits)
	}
	if modulusBits%2 != 0 {
		return nil, fmt.Errorf("paillier: modulus bit length must be even, got %d", modulusBits)
	}
	p, q, err := mathx.GeneratePrimePair(r, modulusBits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating primes: %w", err)
	}
	return newPrivateKey(p, q)
}

// newPrivateKey derives all cached values from the prime factors.
func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	pub, err := newPublicKey(n)
	if err != nil {
		return nil, err
	}

	pm1 := new(big.Int).Sub(p, mathx.One)
	qm1 := new(big.Int).Sub(q, mathx.One)
	lambda := mathx.Lcm(pm1, qm1)

	// With g = n+1: g^λ mod n² = 1 + λ·n, so L(g^λ) = λ mod n and
	// μ = λ^-1 mod n.
	mu, err := mathx.ModInverse(new(big.Int).Mod(lambda, n), n)
	if err != nil {
		return nil, fmt.Errorf("paillier: λ not invertible mod n (gcd(n,φ)≠1): %w", err)
	}

	crt, err := mathx.NewCRT(p, q)
	if err != nil {
		return nil, fmt.Errorf("paillier: building CRT state: %w", err)
	}

	pSquared := new(big.Int).Mul(p, p)
	qSquared := new(big.Int).Mul(q, q)
	crt2, err := mathx.NewCRT(pSquared, qSquared)
	if err != nil {
		return nil, fmt.Errorf("paillier: building CRT² state: %w", err)
	}
	p2, err := mathx.NewReducer(pSquared)
	if err != nil {
		return nil, fmt.Errorf("paillier: p²: %w", err)
	}
	q2, err := mathx.NewReducer(qSquared)
	if err != nil {
		return nil, fmt.Errorf("paillier: q²: %w", err)
	}

	priv := &PrivateKey{
		PublicKey: pub,
		P:         p,
		Q:         q,
		Lambda:    lambda,
		Mu:        mu,
		pSquared:  pSquared,
		qSquared:  qSquared,
		p2:        p2,
		q2:        q2,
		pMinus1:   pm1,
		qMinus1:   qm1,
		crt:       crt,
		crt2:      crt2,
		nModPOrd:  new(big.Int).Mod(n, new(big.Int).Mul(p, pm1)),
		nModQOrd:  new(big.Int).Mod(n, new(big.Int).Mul(q, qm1)),
	}
	priv.fresh = &randomizers{refill: priv.refillRandomizers, width: p2.Lanes()}

	// h_x = L_x((n+1)^(x-1) mod x²)^-1 mod x. With g = n+1,
	// (1+n)^(x-1) mod x² = 1 + (x-1)·n mod x², so
	// L_x = ((x-1)·n mod x²)/x — computed directly below for clarity.
	hp, err := decryptionConstant(n, p, priv.pSquared, pm1)
	if err != nil {
		return nil, fmt.Errorf("paillier: deriving hp: %w", err)
	}
	hq, err := decryptionConstant(n, q, priv.qSquared, qm1)
	if err != nil {
		return nil, fmt.Errorf("paillier: deriving hq: %w", err)
	}
	priv.hp, priv.hq = hp, hq
	return priv, nil
}

// newPublicKey derives the cached values of the public key with modulus n.
func newPublicKey(n *big.Int) (PublicKey, error) {
	if n.Bit(0) == 0 {
		return PublicKey{}, errors.New("paillier: modulus is even, not a product of two odd primes")
	}
	n2 := new(big.Int).Mul(n, n)
	mod, err := lookupModulus(n, n2)
	if err != nil {
		return PublicKey{}, fmt.Errorf("paillier: modulus: %w", err)
	}
	return PublicKey{N: n, NSquared: n2, byteLen: (n2.BitLen() + 7) / 8, n2: mod.n2, batch: &mod.rns}, nil
}

// reducer returns the N² kernel. A key built as a literal has none cached and
// pays for a fresh one on every call.
func (pk *PublicKey) reducer() *mathx.Reducer {
	if pk.n2 != nil {
		return pk.n2
	}
	red, _ := mathx.NewReducer(pk.NSquared) // N² > 0, or no operand passed validation against it
	return red
}

// randomizer returns r^N mod N² for a fresh uniform unit r of Z*_N, no
// caller's but this one's: the next of the key's batch, or for a key built as
// a literal, one exponentiation.
func (pk *PublicKey) randomizer() (*big.Int, error) {
	if pk.batch != nil {
		return pk.batch.next()
	}
	rns, err := raiseUnits(pk.reducer(), rand.Reader, pk.N, 1)
	if err != nil {
		return nil, err
	}
	return rns[0], nil
}

// mulN2 sets z = x·y mod N² for x, y in [0, N²) and returns z, which may
// alias either operand. It is safe for concurrent use: the reducer is
// immutable and the working storage is drawn from a pool per call.
func (pk *PublicKey) mulN2(z, x, y *big.Int) *big.Int {
	s := mathx.GetScratch()
	pk.reducer().Mul(z, x, y, s)
	mathx.PutScratch(s)
	return z
}

// decryptionConstant returns L_x(g^(x-1) mod x²)^-1 mod x for g = n+1.
func decryptionConstant(n, x, xSquared, xm1 *big.Int) (*big.Int, error) {
	g := new(big.Int).Add(n, mathx.One)
	u := new(big.Int).Exp(g, xm1, xSquared)
	lx, err := lFunc(u, x)
	if err != nil {
		return nil, err
	}
	return mathx.ModInverse(lx, x)
}

// lFunc is L_x(u) = (u-1)/x over the integers; u ≡ 1 (mod x) must hold.
func lFunc(u, x *big.Int) (*big.Int, error) {
	return mathx.L(u, x)
}

// Ciphertext is a Paillier ciphertext: an element of Z*_{N²}. Values are
// immutable after creation.
type Ciphertext struct {
	c       *big.Int
	byteLen int
}

// Value returns a copy of the underlying group element.
func (ct *Ciphertext) Value() *big.Int { return new(big.Int).Set(ct.c) }

// Bytes returns the fixed-width big-endian encoding of the ciphertext.
func (ct *Ciphertext) Bytes() []byte {
	return mathx.FillBytes(make([]byte, ct.byteLen), ct.c)
}

// AppendBytes appends the fixed-width encoding of ct to dst and returns the
// extended slice. The wire-encode hot path uses it to serialize a whole
// chunk of ciphertexts into one preallocated buffer instead of paying a
// fresh allocation per Bytes call.
func (ct *Ciphertext) AppendBytes(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, ct.byteLen)[:n+ct.byteLen]
	mathx.FillBytes(dst[n:], ct.c)
	return dst
}

// String implements fmt.Stringer without dumping kilobits of hex.
func (ct *Ciphertext) String() string {
	return fmt.Sprintf("paillier.Ciphertext(%d bits)", ct.c.BitLen())
}

// Encrypt returns a randomized encryption of m, which must be in [0, N):
// (1 + m·N)·r^N mod N² for a fresh uniform unit r, whose r^N comes from the
// key's batch.
func (pk *PublicKey) Encrypt(m *big.Int) (*Ciphertext, error) {
	if err := pk.checkMessage(m); err != nil {
		return nil, err
	}
	rn, err := pk.randomizer()
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling encryption randomness: %w", err)
	}
	return pk.assembleCiphertext(m, rn), nil
}

// EncryptWithNonce encrypts m with caller-supplied randomness r ∈ Z*_N.
// It is exposed for deterministic tests and for protocol components that
// manage their own randomness pools; r must never be reused for different
// messages that an adversary could compare.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	if err := pk.checkMessage(m); err != nil {
		return nil, err
	}
	if err := pk.checkNonce(r); err != nil {
		return nil, err
	}
	rn := pk.reducer().Exp(new(big.Int), r, pk.N)
	return pk.assembleCiphertext(m, rn), nil
}

// checkNonce validates that r is a unit of Z*_N. A nonce sharing a factor
// with N would silently produce a non-unit ciphertext that Neg and
// decryption later reject with a confusing error — and that would hand a
// factor of N to anyone who saw it on the wire — so it is rejected here
// with a structured error.
func (pk *PublicKey) checkNonce(r *big.Int) error {
	if r == nil || r.Sign() <= 0 || r.Cmp(pk.N) >= 0 {
		return ErrNonceRange
	}
	if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(mathx.One) != 0 {
		return ErrNonceNotUnit
	}
	return nil
}

// assembleCiphertext computes (1 + m·N)·rn mod N² for m in [0, N) and rn in
// [0, N²). The pre-reduction product spans four key widths; it lives in the
// kernel's pooled scratch, and only the reduced result lands in the
// (immutable, long-lived) ciphertext.
func (pk *PublicKey) assembleCiphertext(m, rn *big.Int) *Ciphertext {
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, mathx.One) // 1 + m·N < N² always, no reduction needed
	return &Ciphertext{c: pk.mulN2(c, c, rn), byteLen: pk.byteLen}
}

func (pk *PublicKey) checkMessage(m *big.Int) error {
	if m == nil || m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return fmt.Errorf("%w: m=%v", ErrMessageRange, m)
	}
	return nil
}

// checkCiphertext validates that ct is a plausible ciphertext under pk.
func (pk *PublicKey) checkCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.c == nil {
		return fmt.Errorf("%w: nil", ErrCiphertextForm)
	}
	if ct.c.Sign() <= 0 || ct.c.Cmp(pk.NSquared) >= 0 {
		return fmt.Errorf("%w: value outside (0, N²)", ErrCiphertextForm)
	}
	return nil
}

// Decrypt recovers the plaintext of ct using CRT-accelerated decryption.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	// m_p = L_p(c^(p-1) mod p²)·h_p mod p
	cp := new(big.Int).Mod(ct.c, sk.pSquared)
	sk.p2.Exp(cp, cp, sk.pMinus1)
	lp, err := lFunc(cp, sk.P)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeyMismatch, err)
	}
	mp := lp.Mul(lp, sk.hp)
	mp.Mod(mp, sk.P)

	cq := new(big.Int).Mod(ct.c, sk.qSquared)
	sk.q2.Exp(cq, cq, sk.qMinus1)
	lq, err := lFunc(cq, sk.Q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeyMismatch, err)
	}
	mq := lq.Mul(lq, sk.hq)
	mq.Mod(mq, sk.Q)

	return sk.crt.Combine(mp, mq), nil
}

// DecryptNaive recovers the plaintext with the textbook formula
// m = L(c^λ mod N²)·μ mod N. It is retained for the ablation experiment
// comparing implementation constants and as a cross-check oracle in tests.
func (sk *PrivateKey) DecryptNaive(ct *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	u := new(big.Int).Exp(ct.c, sk.Lambda, sk.NSquared)
	l, err := mathx.L(u, sk.N)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeyMismatch, err)
	}
	m := l.Mul(l, sk.Mu)
	return m.Mod(m, sk.N), nil
}

// Public returns the public half of the key.
func (sk *PrivateKey) Public() *PublicKey { return &sk.PublicKey }

// Equal reports whether two public keys have the same modulus.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.N.Cmp(other.N) == 0
}
