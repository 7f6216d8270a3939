package netsim

import (
	"fmt"
	"time"
)

// Pipeline computes the makespan of the paper's Section 3.2 batched
// execution, in which three activities overlap: the client encrypting chunk
// i+1, the link carrying chunk i, and the server folding chunk i-1 into its
// partial product.
//
// The schedule follows the standard flow-shop recurrence for a 3-stage
// pipeline with in-order, non-overlapping stages:
//
//	encDone[i]  = encDone[i-1] + enc[i]                 (client is sequential)
//	txDone[i]   = max(encDone[i], txDone[i-1]) + ser[i] (link is sequential)
//	srvDone[i]  = max(txDone[i] + latency, srvDone[i-1]) + srv[i]
//
// Propagation latency delays each chunk's arrival but — unlike
// serialization — does not occupy the link, so it appears on the server
// side of the recurrence.
type Pipeline struct {
	link Link

	encDone time.Duration
	txDone  time.Duration
	srvDone time.Duration
}

// NewPipeline starts an empty schedule over the given link.
func NewPipeline(link Link) (*Pipeline, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{link: link}, nil
}

// AddChunk appends one chunk with the measured client encryption time, the
// chunk's wire size in bytes, and the measured server processing time.
func (p *Pipeline) AddChunk(enc time.Duration, wireBytes int64, srv time.Duration) error {
	if enc < 0 || srv < 0 || wireBytes < 0 {
		return fmt.Errorf("netsim: negative pipeline stage (enc=%v bytes=%d srv=%v)", enc, wireBytes, srv)
	}
	p.encDone += enc
	tx := p.encDone
	if p.txDone > tx {
		tx = p.txDone
	}
	p.txDone = tx + p.link.SerializationTime(wireBytes)
	arrive := p.txDone + p.link.Latency
	if p.srvDone > arrive {
		arrive = p.srvDone
	}
	p.srvDone = arrive + srv
	return nil
}

// Finish completes the protocol: the server's response of respBytes travels
// back and the client spends decrypt decrypting it. It returns the total
// end-to-end online time.
func (p *Pipeline) Finish(respBytes int64, decrypt time.Duration) time.Duration {
	return p.srvDone + p.link.OneWayTime(respBytes) + decrypt
}
