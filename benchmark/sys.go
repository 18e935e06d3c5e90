package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the user+system CPU time the whole process has used.
// The cluster runs in this process, so it covers every layer plus the
// load generator.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS asks the kernel to restart the VmHWM high-water mark at
// the current RSS, so peak_rss_mb covers the timed window and not input
// generation. Where the kernel refuses, VmHWM keeps its process-lifetime
// meaning; both commits of a comparison run on the same kernel.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// waitIdle blocks until the process has stopped using CPU — the drain
// pools have emptied every ingest buffer and replicas have applied what
// was shipped — and returns the instant the quiet period began. volap
// exposes no flush through Cluster or Client, so quiescence is observed
// from outside: a drain is CPU-bound, so three consecutive 10 ms slices
// that each used under 2 ms of CPU mean nothing is draining.
func waitIdle() time.Time {
	const slice = 10 * time.Millisecond
	quietSince := time.Now()
	quiet := 0
	prev := cpuTime()
	for deadline := quietSince.Add(30 * time.Second); quiet < 3 && time.Now().Before(deadline); {
		time.Sleep(slice)
		cur := cpuTime()
		if cur-prev < slice/5 {
			quiet++
		} else {
			quiet = 0
			quietSince = time.Now()
		}
		prev = cur
	}
	return quietSince
}
