package mathx

import (
	"fmt"
	"math/big"
	"sync"
)

// CRT holds precomputed values for recombining residues mod p and mod q into
// a residue mod p·q via the Chinese Remainder Theorem.
type CRT struct {
	p, q *big.Int
	// qInvP = q^-1 mod p
	qInvP *big.Int
	// rp multiplies mod p: Garner's product by qInvP without a division.
	rp *Reducer

	// qInvLanes is qInvP·R mod p in all eight lanes of p's lane kernel,
	// R = 2^(52·limbs), so that one lane product by it multiplies by qInvP
	// outright. CombineEach builds it on first use.
	laneOnce  sync.Once
	qInvLanes laneNum
}

// NewCRT prepares CRT recombination for the coprime moduli p and q.
func NewCRT(p, q *big.Int) (*CRT, error) {
	if p == nil || q == nil || p.Sign() <= 0 || q.Sign() <= 0 {
		return nil, ErrBadModulus
	}
	qInvP, err := ModInverse(q, p)
	if err != nil {
		return nil, fmt.Errorf("mathx: CRT moduli are not coprime: %w", err)
	}
	rp, err := NewReducer(p)
	if err != nil {
		return nil, err
	}
	return &CRT{
		p:     new(big.Int).Set(p),
		q:     new(big.Int).Set(q),
		qInvP: qInvP,
		rp:    rp,
	}, nil
}

// ReducerP returns the Reducer mod p that Combine multiplies with, for a
// caller that works mod p too.
func (c *CRT) ReducerP() *Reducer { return c.rp }

// Combine returns the unique x in [0, p·q) with x ≡ ap (mod p) and
// x ≡ aq (mod q), using Garner's formula:
//
//	x = aq + q · ((ap - aq) · q^-1 mod p)
//
// For ap in [0, p) and aq in [0, q) the product is one Barrett
// multiplication mod p, with no division, and since h = (ap − aq)·q⁻¹ mod p
// is below p, aq + q·h is below p·q and needs no final reduction. Any other
// input is reduced first.
func (c *CRT) Combine(ap, aq *big.Int) *big.Int {
	s := GetScratch()
	z := c.combine(new(big.Int), ap, aq, s)
	PutScratch(s)
	return z
}

// combine sets z = Combine(ap, aq) and returns z, which may be ap or aq.
func (c *CRT) combine(z, ap, aq *big.Int, s *Scratch) *big.Int {
	ap, aq = c.reduced(ap, aq)
	h := c.diff(&s.h, ap, aq)
	c.rp.Mul(h, h, c.qInvP, s)
	return c.join(z, h, aq, s)
}

// reduced returns ap mod p and aq mod q, allocating only for an input outside
// [0, p) or [0, q).
func (c *CRT) reduced(ap, aq *big.Int) (*big.Int, *big.Int) {
	if ap.Sign() < 0 || ap.Cmp(c.p) >= 0 {
		ap = new(big.Int).Mod(ap, c.p)
	}
	if aq.Sign() < 0 || aq.Cmp(c.q) >= 0 {
		aq = new(big.Int).Mod(aq, c.q)
	}
	return ap, aq
}

// diff sets d = (ap − aq) mod p, in [0, p), for ap in [0, p) and aq in [0, q),
// and returns d. Where q < 4p, as for the factors of a Paillier key and their
// squares, at most four additions of p do it.
func (c *CRT) diff(d, ap, aq *big.Int) *big.Int {
	d.Sub(ap, aq)
	for i := 0; d.Sign() < 0; i++ {
		if i == 4 {
			return d.Mod(d, c.p)
		}
		d.Add(d, c.p)
	}
	return d
}

// join sets z = aq + q·h for h in [0, p) and returns z, which may be aq.
func (c *CRT) join(z, h, aq *big.Int, s *Scratch) *big.Int {
	s.t.Mul(h, c.q)
	return z.Add(&s.t, aq)
}

// CombineEach sets z[i] = Combine(ap[i], aq[i]) for every i. Where p has a
// lane kernel (an odd p of at most 2048 bits, on amd64 with AVX512-IFMA) the
// products by q⁻¹ run eight at a time, one lane product per group of eight;
// otherwise it is Combine's Barrett product per element. z, ap and aq have
// the same length, every z[i] is non-nil, and z[i] may be ap[i] or aq[i] but
// no other input. Inputs in range cost no allocation beyond growing a z[i]
// to p·q's words.
func (c *CRT) CombineEach(z, ap, aq []*big.Int) {
	if len(z) != len(ap) || len(z) != len(aq) {
		panic("mathx: CombineEach with inputs of different lengths")
	}
	s := GetScratch()
	defer PutScratch(s)
	if c.rp.laneLimbs == 0 {
		for i := range z {
			c.combine(z[i], ap[i], aq[i], s)
		}
		return
	}
	for i := 0; i < len(z); i += laneCount {
		j := min(i+laneCount, len(z))
		c.combineLanes(z[i:j], ap[i:j], aq[i:j], s)
	}
}

// combineLanes is CombineEach on p's lane kernel for at most eight pairs:
// the differences d < p go into the lanes as they are, which the kernel's
// contract (inputs below 2p) allows, one lane product by qInvP·R gives
// d·qInvP mod p below 2p, and readLane's conditional subtraction finishes
// it. That product can reach a word past p's own (it is h + p for a small
// h where p is just below 2^(64·words)), which readLane reads too. Lanes
// past len(z) multiply 0.
func (c *CRT) combineLanes(z, ap, aq []*big.Int, s *Scratch) {
	lc := c.rp.lanes()
	qInv := c.qInvLane(lc)
	var buf [laneMaxLimbs + 1]laneRow
	d := alignedRows(buf[:], lc.limbs)
	var aqs [laneCount]*big.Int
	for l := range z {
		var apl *big.Int
		apl, aqs[l] = c.reduced(ap[l], aq[l])
		d.set(l, c.diff(&s.h, apl, aqs[l]).Bits())
	}
	lc.mul(d, d, qInv)
	n := c.rp.n
	for l, zl := range z {
		hw := s.h.Bits()
		if cap(hw) < n {
			hw = make([]big.Word, n)
		}
		hw = hw[:n]
		c.rp.readLane(hw, d, l)
		c.join(zl, s.h.SetBits(hw), aqs[l], s)
	}
}

// qInvLane returns qInvLanes, building it on the first call; lc is p's lane
// constants.
func (c *CRT) qInvLane(lc *laneConsts) laneNum {
	c.laneOnce.Do(func() {
		L := lc.limbs
		v := new(big.Int).Lsh(c.qInvP, uint(limbBits*L))
		v.Mod(v, c.p)
		c.qInvLanes = alignedRows(make([]laneRow, L+1), L)
		for l := 0; l < laneCount; l++ {
			c.qInvLanes.set(l, v.Bits())
		}
	})
	return c.qInvLanes
}

// ExpCRT computes base^exp mod p·q by exponentiating separately mod p and
// mod q and recombining. For a 2k-bit modulus this is roughly 3-4x faster
// than a direct Exp, which is the classic RSA/Paillier decryption speedup.
func (c *CRT) ExpCRT(base, exp *big.Int) *big.Int {
	bp := new(big.Int).Mod(base, c.p)
	bq := new(big.Int).Mod(base, c.q)
	// Reduce the exponent mod p-1 and q-1 (Fermat) when base is coprime to
	// the prime modulus; when it is not (base ≡ 0 mod p), the power is 0 and
	// the reduction is still harmless for exp > 0.
	pm1 := new(big.Int).Sub(c.p, One)
	qm1 := new(big.Int).Sub(c.q, One)
	ep := new(big.Int).Mod(exp, pm1)
	eq := new(big.Int).Mod(exp, qm1)
	if exp.Sign() > 0 {
		if ep.Sign() == 0 && bp.Sign() != 0 {
			// base^k(p-1) ≡ 1; keep it explicit rather than computing Exp(.., 0).
			bp.SetInt64(1)
			ep.SetInt64(0)
		}
		if eq.Sign() == 0 && bq.Sign() != 0 {
			bq.SetInt64(1)
			eq.SetInt64(0)
		}
	}
	ap := new(big.Int).Exp(bp, ep, c.p)
	aq := new(big.Int).Exp(bq, eq, c.q)
	return c.Combine(ap, aq)
}
