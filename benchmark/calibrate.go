package main

import (
	"math/big"
	"runtime"
	"time"
)

// The hosts this benchmark runs on are shared. The same fixed arithmetic
// takes up to 1.8 times longer for five to twenty seconds at a stretch and
// drifts by 10-15% over a quarter of an hour, in CPU time as much as in wall
// time and with no steal time to show for it; unscaled, no time metric
// repeats within any useful bound. So every client of a closed loop times a
// fixed piece of work, a burst, before and after each batch of ops, and each
// time it measures in between is divided by how much slower than
// burstReference those two bursts ran. A reported time therefore reads as it
// would on a host that runs a burst in exactly burstReference. The burst is
// standard-library code on constants: no change to the repository moves it.
const (
	burstExps = 16
	// burstEvery is the least time between a client's bursts; a batch is the
	// ops a client completes in between (always at least one).
	burstEvery = 100 * time.Millisecond
	// burstReference is a burst's time on the host the bounds were set on,
	// at its fastest. It anchors the unit and nothing else.
	burstReference = 8800 * time.Microsecond
)

var (
	burstModulus  = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 1023), big.NewInt(1155))
	burstExponent = new(big.Int).Sub(burstModulus, big.NewInt(2))
	burstBase     = big.NewInt(3)
)

// burst runs burstExps 1024-bit modular exponentiations, the instruction mix
// of the program under test, and returns the wall time they took, which is
// what scales, and the CPU time, which the caller takes off the process's.
// The goroutine is pinned to its thread meanwhile so that the thread's CPU
// clock is the burst's own.
func burst() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := new(big.Int)
	cpu0 := threadCPU()
	start := time.Now()
	for i := 0; i < burstExps; i++ {
		r.Exp(burstBase, burstExponent, burstModulus)
	}
	return time.Since(start), threadCPU() - cpu0
}

// scale reads d, measured between two bursts, as the reference host would
// have run it.
func scale(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) / slowdown(before, after))
}

// slowdown is how much slower than the reference host the stretch between two
// bursts ran.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(burstReference)
}
