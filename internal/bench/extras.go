package bench

import (
	"fmt"
	"time"

	"privstats/internal/netsim"
	"privstats/internal/selectedsum"
	"privstats/internal/yao"
)

// The experiments beyond the paper's numbered figures: the Section 2
// general-SMC (Fairplay/Yao) comparison and the §3.2 chunk-size sensitivity
// the paper discusses but does not plot.

// YaoRow compares our protocol against the Yao cost model at one size.
type YaoRow struct {
	N       int
	Private time.Duration
	// YaoEstimate uses per-gate constants calibrated from this machine's
	// real garbled-circuit runs — the matched-modern-constants comparison.
	YaoEstimate time.Duration
	// YaoEra uses 2004 Fairplay constants (see yao.FairplayEra), which is
	// the comparison the paper actually quotes.
	YaoEra       time.Duration
	YaoGates     int64
	YaoWireBytes int64
}

// YaoComparison reproduces the Section 2 comparison: the private selected
// sum versus a calibrated estimate of a garbled-circuit execution, over the
// short-distance link. The per-gate constants come from garbling and
// evaluating a real (small) circuit; the per-OT constant from running the
// yao package's real EGL oblivious transfer.
func (c Config) YaoComparison() ([]YaoRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	sk, _, err := c.newKey()
	if err != nil {
		return nil, err
	}
	// Measure the per-OT constant with the package's real EGL oblivious
	// transfer (a handful of round trips amortizes the RSA private op).
	otSample, err := measureOT(8)
	if err != nil {
		return nil, fmt.Errorf("bench: measuring OT constant: %w", err)
	}
	model, err := yao.Calibrate(otSample)
	if err != nil {
		return nil, fmt.Errorf("bench: calibrating Yao model: %w", err)
	}

	rows := make([]YaoRow, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		table, sel, err := c.workload(n)
		if err != nil {
			return nil, err
		}
		priv, err := selectedsum.Run(sk, table, sel, selectedsum.Options{Link: netsim.ShortDistance})
		if err != nil {
			return nil, err
		}
		est, err := model.SelectedSum(n, 32, netsim.ShortDistance)
		if err != nil {
			return nil, err
		}
		era, err := yao.FairplayEra().SelectedSum(n, 32, netsim.ShortDistance)
		if err != nil {
			return nil, err
		}
		rows = append(rows, YaoRow{
			N:            n,
			Private:      priv.Timings.Total,
			YaoEstimate:  est.Total,
			YaoEra:       era.Total,
			YaoGates:     est.Gates,
			YaoWireBytes: est.WireBytes,
		})
		c.progressf("yao n=%d private=%v yao=%v era=%v (%d gates)\n", n,
			priv.Timings.Total.Round(time.Millisecond), est.Total.Round(time.Millisecond),
			era.Total.Round(time.Second), est.Gates)
	}
	return rows, nil
}

// measureOT times count full 1-of-2 oblivious transfers (512-bit RSA, the
// yao package's EGL implementation) and returns the per-OT constant.
func measureOT(count int) (time.Duration, error) {
	sender, err := yao.NewOTSender(512)
	if err != nil {
		return 0, err
	}
	n, e, x0, x1 := sender.PublicParams()
	var m0, m1 [yao.OTMessageSize]byte
	start := time.Now()
	for i := 0; i < count; i++ {
		recv, req, err := yao.NewOTRequest(n, e, x0, x1, uint(i%2))
		if err != nil {
			return 0, err
		}
		resp, err := sender.Respond(req, m0, m1)
		if err != nil {
			return 0, err
		}
		if _, err := recv.Open(resp); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(count), nil
}

// ChunkRow is one point of the chunk-size sensitivity sweep.
type ChunkRow struct {
	ChunkSize int
	Total     time.Duration
	Chunks    int
}

// ChunkSweep runs the batched protocol at the largest sweep size across
// chunk sizes,
// exploring the paper's observation that "the optimal chunk size will
// depend on the relative communication and computation speeds".
func (c Config) ChunkSweep(chunkSizes []int, link netsim.Link) ([]ChunkRow, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(chunkSizes) == 0 {
		chunkSizes = []int{10, 50, 100, 500, 1000, 5000}
	}
	sk, _, err := c.newKey()
	if err != nil {
		return nil, err
	}
	// The largest sweep size gives per-run times big enough that scheduler
	// noise does not swamp the chunk-size effect.
	n := c.Sizes[len(c.Sizes)-1]
	table, sel, err := c.workload(n)
	if err != nil {
		return nil, err
	}
	rows := make([]ChunkRow, 0, len(chunkSizes))
	for _, cs := range chunkSizes {
		if cs < 1 {
			return nil, fmt.Errorf("bench: chunk size %d must be positive", cs)
		}
		res, err := selectedsum.Run(sk, table, sel, selectedsum.Options{
			Link: link, ChunkSize: cs,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ChunkRow{ChunkSize: cs, Total: res.Timings.Total, Chunks: res.Chunks})
		c.progressf("chunk=%d total=%v\n", cs, res.Timings.Total.Round(time.Millisecond))
	}
	return rows, nil
}
