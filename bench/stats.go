package main

import (
	"math"
	"sort"
)

// A measured phase is split into equal consecutive windows and each
// timing metric is the median over the windows (see mirrored). The reference
// box flips between two CPU speeds some 30% apart and stays in one for
// seconds at a time, so windows are kept short enough that most of them
// lie wholly in one state, and the median reports the state the majority
// were in. A window keeps at least windowMinSamples samples, so its p95
// still has ten samples beyond it.
const (
	minWindows       = 5
	maxWindows       = 25
	windowMinSamples = 200
)

// numWindows is the window count for a phase of n samples.
func numWindows(n int) int {
	return min(max(n/windowMinSamples, minWindows), maxWindows)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentileOf is percentile of an unordered sample.
func percentileOf(xs []float64, p float64) float64 { return percentile(sortedCopy(xs), p) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// supportedPercentile is the highest of the usual tail percentiles that
// still has at least ten samples beyond it in a sample of size n. A p95
// is only reported where this returns at least 95.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// windowBounds splits [0, n) into k equal consecutive ranges; the last
// takes the remainder.
func windowBounds(n, k int) [][2]int {
	out := make([][2]int, k)
	for w := 0; w < k; w++ {
		lo, hi := w*n/k, (w+1)*n/k
		out[w] = [2]int{lo, hi}
	}
	return out
}

// mirrored averages each window with the one as far from the other end of
// the phase: first with last, second with last but one, the middle one of
// an odd count with itself. Most phases drift: an Add clones a catalog
// that grows with every Add, a search runs against a fleet the writes
// keep growing. The plain median of a drifting series is whatever its two
// middle windows measured. A linear drift cancels in every pair, so each
// pair estimates the mid-phase level and the median over pairs draws on
// the whole phase; a burst still spoils only the pair it falls in.
func mirrored(w []float64) []float64 {
	out := make([]float64, (len(w)+1)/2)
	for i := range out {
		out[i] = (w[i] + w[len(w)-1-i]) / 2
	}
	return out
}

// windowed is one timing metric: the median of its mirrored per-window
// values, the window values themselves, and the samples behind them.
type windowed struct {
	Value   float64
	Windows []float64
	Samples int
}

// medianOfWindows splits xs (in op order) into numWindows(len(xs))
// windows, applies stat to each window's ascending copy and returns the
// median of the mirrored window values.
func medianOfWindows(xs []float64, stat func(sorted []float64) float64) windowed {
	w := windowed{Samples: len(xs)}
	for _, b := range windowBounds(len(xs), numWindows(len(xs))) {
		w.Windows = append(w.Windows, stat(sortedCopy(xs[b[0]:b[1]])))
	}
	w.Value = median(mirrored(w.Windows))
	return w
}

func p50(sorted []float64) float64 { return percentile(sorted, 50) }
func p95(sorted []float64) float64 { return percentile(sorted, 95) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// closedLoopRate is ops per second of one caller that issues its next op
// when the previous returns: ops ÷ the time spent inside them. latMS are
// the successful ops' latencies in milliseconds.
func closedLoopRate(latMS []float64) float64 {
	if t := sum(latMS); t > 0 {
		return float64(len(latMS)) / (t / 1000)
	}
	return 0
}
