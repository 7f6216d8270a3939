package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the user+system CPU this process has consumed so far.
func cpuTime() (time.Duration, error) { return rusage(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// threadCPU returns the CPU the calling thread has consumed, or 0 where the
// kernel will not say; callers use differences.
func threadCPU() time.Duration {
	d, _ := rusage(rusageThread)
	return d
}

func rusage(who int) (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// resetPeakRSS returns freed memory to the system and restarts the
// resident-set high-water mark from what is left, so that the peak read later
// is the measured phase's and not the repeated set-ups'.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
