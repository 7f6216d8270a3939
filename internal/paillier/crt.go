package paillier

import (
	"crypto/rand"
	"io"
	"math/big"
)

// CRT-accelerated encryption for key owners.
//
// The paper's central measurement (Fig. 2) is that the client's encryption
// work — one r^N mod N² per index bit — dominates end-to-end cost. A client
// that holds the private key (which the selected-sum client always does; it
// decrypts the final sum) can split that exponentiation over the secret
// factors, exactly as CRT decryption already does:
//
//	r^N mod p²  =  (r mod p²)^(N mod p·(p-1)) mod p²
//	r^N mod q²  =  (r mod q²)^(N mod q·(q-1)) mod q²
//
// since Z*_{p²} has order p·(p-1). Recombining with crt2 gives the exact
// r^N mod N² (RandomizerCRT / EncryptWithNonceCRT), at roughly half the
// naive cost: the modulus halves, though the reduced exponent stays ~|N|
// bits (N mod p(p-1) = p·(q mod (p-1))).
//
// Fresh encryptions (EncryptCRT) go further. They do not need the power of
// a *given* r — only a randomizer with the right distribution — so they
// sample it directly in the target subgroup. The randomizers of honest
// encryptions, {r^N mod N² : r ∈ Z*_N}, form the unique subgroup
// H = H_p × H_q of Z*_{N²} with |H_p| = p-1, |H_q| = q-1, and r uniform
// over Z*_N makes r^N uniform over H (r ↦ r^N is (a mod p) ↦ (a^p)^q on the
// p-side: a ↦ a^p mod p² is injective into H_p, and x ↦ x^q is a bijection
// of H_p since gcd(q, p-1) = 1 by key generation). The same H is hit by the
// "z^p shortcut": for z uniform over Z*_N,
//
//	(z mod p)^p mod p²   is uniform over H_p
//	(z mod q)^q mod q²   is uniform over H_q
//
// because (a+bp)^p ≡ a^p (mod p²), so a ↦ a^p maps Z*_p bijectively onto
// H_p. The shortcut's exponents are half-width (|p| bits instead of |N|),
// which with the halved modulus cuts the modular-multiplication count 4x
// against the public-key path. The wall-clock win is smaller at 1024-bit
// keys — ~3x — because a modular multiplication at half width costs more than
// a quarter of full width (per-call overhead; see DESIGN.md §16). At the
// paper's 512-bit key p² and q² are 8 words, and the exponentiations mod them
// run on mathx's register-resident Montgomery kernel (Reducer.Exp) wherever
// the CPU has BMI2 and ADX, which removes most of that overhead.
//
// Fresh randomizers are independent, and all of a key's z^p mod p² share one
// modulus and one exponent (and likewise mod q²), so FreshRandomizerCRT
// computes them in batches: a refill samples up to Reducer.Lanes() pairs
// (zp, zq), as many as the batch has handed out (randomizers.go), from one
// read of crypto/rand, and raises them with one Reducer.ExpEach per side,
// which on amd64 with AVX512-IFMA runs eight exponentiations at once, one per
// 64-bit lane of a ZMM register (ten radix-2^52 limbs per lane for a 512-bit
// key's p², twenty for a 1024-bit key's); one CRT.CombineEach recombines the
// pairs, its Garner products eight at a time on p²'s lanes. Each randomizer
// of a batch is handed out once (randomizers.go). On a 2-vCPU Intel Xeon
// with AVX512-IFMA, in medians of five runs, BenchmarkEncryptCRT takes
// ≈ 13.6 µs per encryption (~68 µs without the lanes) and
// BenchmarkFreshRandomizerCRT ≈ 12.8 µs (~61 µs without the lanes), against
// ≈ 15.2 and ≈ 14.5 µs in the same runs when the combine divided and each
// nonce was its own crypto/rand.Int call. The online cost collapses further
// once whole ciphertexts come out of an owner-filled BitStore. The CRT arithmetic is pinned bit-exact by
// FuzzEncryptCRTEquivalence, at a 128-, a 512- and a 1024-bit key.
//
// The stock daemon cannot take any of these paths: it holds only public
// keys (DESIGN.md §16), so its bit fills raise r^N mod N² without the
// factorization. They too run eight at a time: N² of a 512-bit key has 1024
// bits, which mathx's twenty-limb lanes take (randomizers.go).

// RandomizerCRT computes the exact randomizer r^N mod N² through the
// factorization: separately mod p² and q² with the exponent reduced mod the
// subgroup orders, recombined by CRT. The result is bit-identical to
// new(big.Int).Exp(r, N, N²) for every valid nonce.
func (sk *PrivateKey) RandomizerCRT(r *big.Int) (*big.Int, error) {
	if err := sk.checkNonce(r); err != nil {
		return nil, err
	}
	rp := new(big.Int).Mod(r, sk.pSquared)
	sk.p2.Exp(rp, rp, sk.nModPOrd)
	rq := new(big.Int).Mod(r, sk.qSquared)
	sk.q2.Exp(rq, rq, sk.nModQOrd)
	return sk.crt2.Combine(rp, rq), nil
}

// FreshRandomizerCRT samples a fresh randomizer uniform over the N-th
// residues of Z*_{N²} — the exact distribution of r^N for uniform r ∈ Z*_N —
// via the half-width z^p shortcut (see the package comment above). This is
// the fast path behind EncryptCRT and so behind the owner's BitStore. It
// hands out each randomizer of a refill once (randomizers.go).
func (sk *PrivateKey) FreshRandomizerCRT() (*big.Int, error) {
	return sk.fresh.next()
}

// refillRandomizers returns count fresh randomizers, all of whose
// exponentiations run side by side: one ExpEach mod p² and one mod q², up to
// eight lanes each where the lane kernel applies, then one CombineEach, whose
// Garner products take one lane product per eight. Every nonce of the refill
// comes from one read of crypto/rand.
func (sk *PrivateKey) refillRandomizers(count int) ([]*big.Int, error) {
	zp, zq := make([]*big.Int, count), make([]*big.Int, count)
	for i := range zp {
		zp[i], zq[i] = new(big.Int), new(big.Int)
	}
	if err := sk.sampleNonces(rand.Reader, zp, zq); err != nil {
		return nil, err
	}
	sk.p2.ExpEach(zp, zp, sk.P)
	sk.q2.ExpEach(zq, zq, sk.Q)
	sk.crt2.CombineEach(zp, zp, zq)
	return zp, nil
}

// sampleNonces sets zp and zq to nonces read from rd: each zp[i] uniform over
// [1, p) and each zq[i] over [1, q). z uniform over Z*_N is, through the CRT
// isomorphism Z*_N ≅ Z*_p × Z*_q, the same as independent zp and zq uniform
// over those ranges: the factors are prime, so every nonzero residue is a
// unit and no gcd is taken.
func (sk *PrivateKey) sampleNonces(rd io.Reader, zp, zq []*big.Int) error {
	return sampleUnits(rd, unitDraw{z: zp, m: sk.P, prime: true}, unitDraw{z: zq, m: sk.Q, prime: true})
}

// EncryptCRT returns a randomized encryption of m computed through the
// factorization — the key owner's fast encryption path. Output ciphertexts
// are identically distributed to PublicKey.Encrypt's.
func (sk *PrivateKey) EncryptCRT(m *big.Int) (*Ciphertext, error) {
	if err := sk.checkMessage(m); err != nil {
		return nil, err
	}
	rn, err := sk.FreshRandomizerCRT()
	if err != nil {
		return nil, err
	}
	return sk.assembleCiphertext(m, rn), nil
}

// EncryptWithNonceCRT is EncryptWithNonce through the CRT randomizer path:
// for any valid (m, r) it returns a ciphertext bit-identical to
// EncryptWithNonce(m, r). FuzzEncryptCRTEquivalence pins this equality.
func (sk *PrivateKey) EncryptWithNonceCRT(m, r *big.Int) (*Ciphertext, error) {
	if err := sk.checkMessage(m); err != nil {
		return nil, err
	}
	rn, err := sk.RandomizerCRT(r)
	if err != nil {
		return nil, err
	}
	return sk.assembleCiphertext(m, rn), nil
}
