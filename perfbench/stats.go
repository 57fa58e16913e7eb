package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tail returns the highest percentile of xs that has at least
// minBeyond samples beyond it, as (value, percentile). When that
// percentile would not reach the median (fewer than 2·minBeyond
// samples) it returns the median and reports percentile 50, so the
// caller can say the tail is unresolved.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 2*minBeyond {
		return median(xs), 50
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := n - 1 - minBeyond // s[i] has exactly minBeyond samples above it
	return s[i], math.Floor(100 * float64(i+1) / float64(n))
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampleEvery is how often sampleHeapPeak reads the heap size.
const heapSampleEvery = 5 * time.Millisecond

// sampleHeapPeak reads the bytes held by heap objects (live, and dead
// but not yet swept) every heapSampleEvery until stop is closed, then
// sends the highest value it saw on peak.
func sampleHeapPeak(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	var hi uint64
	for {
		metrics.Read(s)
		hi = max(hi, s[0].Value.Uint64())
		select {
		case <-stop:
			peak <- hi
			return
		case <-t.C:
		}
	}
}
