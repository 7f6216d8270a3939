package mathx

import "sync"

// scratchPool recycles the working storage of Reducer.Mul for callers that
// do not own a Scratch of their own — a public key shared by every session.
// The pre-reduction product of a Paillier operation spans four key widths;
// without recycling, every ciphertext addition and every pooled encryption
// reallocates that buffer, which dominates allocation churn at high session
// counts.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a Scratch for temporary use.
func GetScratch() *Scratch {
	return scratchPool.Get().(*Scratch)
}

// PutScratch returns s to the pool. The caller must not use s afterwards.
func PutScratch(s *Scratch) {
	scratchPool.Put(s)
}
