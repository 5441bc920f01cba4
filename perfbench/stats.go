package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the fewest samples a reported percentile must have above
// it; a p99 over fewer than 1000 samples would rest on a handful of
// outliers.
const minBeyond = 10

// median returns the median of xs (mean of the middle pair for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted samples. It
// refuses a quantile with fewer than minBeyond samples above it.
func quantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || (q > 0.5 && n-1-idx < minBeyond) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", q*100, minBeyond, n)
	}
	return sorted[idx], nil
}

// groupedQuantile is the q-quantile of integer-valued samples, interpolated
// within the unit-wide bin of the value that holds rank q·n — the grouped
// estimator of Python's statistics.median_grouped. Simulated latencies are
// whole time units; a nearest-rank percentile of them moves only in whole
// units and hides shifts smaller than one unit.
func groupedQuantile(sorted []float64, q float64) (float64, error) {
	v, err := quantile(sorted, q)
	if err != nil {
		return 0, err
	}
	lo := sort.SearchFloat64s(sorted, v)
	hi := sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
	rank := q * float64(len(sorted))
	return v - 0.5 + (rank-float64(lo))/float64(hi-lo), nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
