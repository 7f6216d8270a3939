package main

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
)

// slabSeeds is how many ciphertexts of a slab the key owner encrypts; the
// rest are running products of those, which costs one modular multiplication
// each and keeps set-up time about the program, not about the harness.
const slabSeeds = 32

// slab is the stand-in for the paper's offline preprocessing (§3.3): n valid,
// pairwise distinct encryptions of 0 and of 1 under the workload's key. It is
// read-only once filled, so the clients of a workload share it.
type slab struct {
	bits [2][]*paillier.Ciphertext
}

// fillSlab makes n encryptions of each bit. A product of encryptions of 0 is
// an encryption of 0 under the product of their randomizers, so the server
// folds these exactly as it folds owner-encrypted ones.
func fillSlab(sk *paillier.PrivateKey, n int) (*slab, error) {
	pk := sk.Public()
	zero, one := new(big.Int), big.NewInt(1)
	seeds := make([]*paillier.Ciphertext, slabSeeds)
	for i := range seeds {
		ct, err := sk.EncryptCRT(zero)
		if err != nil {
			return nil, fmt.Errorf("filling slab: %w", err)
		}
		seeds[i] = ct
	}
	s := &slab{}
	// 2n running products: the even ones stay encryptions of 0, the odd ones
	// get the plaintext 1 added.
	acc := seeds[0]
	for i := 0; i < 2*n; i++ {
		next, err := pk.Add(acc, seeds[(i+1)%slabSeeds])
		if err != nil {
			return nil, fmt.Errorf("filling slab: %w", err)
		}
		acc = next
		bit := i % 2
		ct := acc
		if bit == 1 {
			if ct, err = pk.AddPlain(acc, one); err != nil {
				return nil, fmt.Errorf("filling slab: %w", err)
			}
		}
		s.bits[bit] = append(s.bits[bit], ct)
	}
	return s, nil
}

// replayPool hands a slab's ciphertexts out round-robin. A slab holds at least
// as many of each bit as the longest query draws, so no ciphertext repeats
// inside one query; across queries they do, which a real stock must not allow
// and a benchmark on two cores cannot avoid (see README, "Inputs").
type replayPool struct {
	slab *slab
	next [2]atomic.Uint64
}

func (p *replayPool) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	if bit > 1 {
		return nil, fmt.Errorf("replay pool: bit %d", bit)
	}
	stock := p.slab.bits[bit]
	return stock[p.next[bit].Add(1)%uint64(len(stock))], nil
}

func (p *replayPool) Remaining(bit uint) int { return len(p.slab.bits[bit]) }
