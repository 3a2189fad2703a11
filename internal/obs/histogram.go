package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning sub-millisecond index probes to multi-second bulk ingests.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Observations are float64 values (seconds, for the `_seconds` latency
// histograms). All methods are no-ops on a nil receiver. The total count
// is not stored: it is the sum of the buckets, so a snapshot taken while
// observations race it still has its +Inf bucket equal to its count.
type Histogram struct {
	bounds []float64 // immutable ascending upper bounds (exclusive of +Inf)
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the bucket (Prometheus `le` semantics); past the
	// last bound the observation lands in the implicit +Inf slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *Histogram) snapshot() HistogramSnapshot {
	// Count is the sum of the loaded buckets, never a separate load, so
	// the snapshot is self-consistent. Sum may lag an observation whose
	// bucket it already counts, which the exposition format allows.
	s := HistogramSnapshot{
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}
