package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail describes the highest percentile of xs that has at least ten
// samples beyond it, with the sample count.
func tail(xs []float64, unit string) string {
	n := len(xs)
	if n < 11 {
		return fmt.Sprintf("n=%d, no tail percentile (needs 11 samples)", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - 11 // ten samples lie above s[rank]
	return fmt.Sprintf("n=%d, p%.0f %.6g %s", n, 100*float64(rank+1)/float64(n), s[rank], unit)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// promSeries parses a Prometheus text exposition into series → value,
// keyed by the series as written (name plus label set).
func promSeries(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// promSum sums the series of one metric name whose label set contains
// every given label matcher (such as `event="grant"`).
func promSum(series map[string]float64, name string, labels ...string) float64 {
	var sum float64
next:
	for key, v := range series {
		base, lab, _ := strings.Cut(key, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// promDelta returns after − before per series.
func promDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
