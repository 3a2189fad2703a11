package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, ascending
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4, 2}
	if got := median(in); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestNumWindowsKeepsP95Supported(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 5}, {660, 5}, {2200, 11}, {3388, 16}, {4500, 22}, {7000, 25}, {100000, 25}} {
		if got := numWindows(c.n); got != c.want {
			t.Errorf("numWindows(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// From 1000 samples on, every window's p95 has ten samples beyond it.
	for n := 1000; n < 20000; n += 37 {
		if per := n / numWindows(n); supportedPercentile(per) < 95 {
			t.Fatalf("n=%d: %d samples per window do not support a p95", n, per)
		}
	}
}

func TestWindowBoundsCoverEverySampleOnce(t *testing.T) {
	for _, n := range []int{0, 3, 5, 17, 1000} {
		next := 0
		for _, b := range windowBounds(n, numWindows(n)) {
			if b[0] != next || b[1] < b[0] {
				t.Fatalf("n=%d: window %v does not continue at %d", n, b, next)
			}
			next = b[1]
		}
		if next != n {
			t.Errorf("n=%d: windows end at %d", n, next)
		}
	}
}

// One disturbed window out of five must not move the reported value.
func TestMedianOfWindowsIgnoresOneBurst(t *testing.T) {
	calm := make([]float64, 500)
	burst := make([]float64, 500)
	for i := range calm {
		calm[i] = 1 + float64(i%10)/100
		burst[i] = calm[i]
		if i >= 200 && i < 300 { // the third window: a GC or a noisy neighbour
			burst[i] *= 40
		}
	}
	a, b := medianOfWindows(calm, p95), medianOfWindows(burst, p95)
	if a.Value != b.Value {
		t.Errorf("p95 moved from %v to %v because of one window", a.Value, b.Value)
	}
	if len(b.Windows) != 5 || b.Samples != 500 {
		t.Errorf("got %d windows over %d samples", len(b.Windows), b.Samples)
	}
	if b.Windows[2] < 30 {
		t.Errorf("the burst window's own p95 should show the burst, got %v", b.Windows[2])
	}
}

// A phase whose ops get steadily dearer must report its mid-phase level
// from all of its windows, not from the two in the middle.
func TestMedianOfWindowsCancelsDrift(t *testing.T) {
	got := mirrored([]float64{1, 2, 3, 4, 50, 6, 7}) // a drift of 1 per window, one burst
	want := []float64{4, 4, 26.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mirrored = %v, want %v", got, want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1 + float64(i)/1000 // 1 → 2 along the phase
	}
	for i := 400; i < 600; i++ {
		xs[i] = 9 // the middle window of five is a burst; the other four still decide
	}
	if got := medianOfWindows(xs, p50).Value; math.Abs(got-1.5) > 0.01 {
		t.Errorf("mid-phase p50 = %v, want 1.5", got)
	}
}

func TestClosedLoopRate(t *testing.T) {
	// 4 ops of 2.5 ms each: 10 ms inside ops, 400 ops/s.
	if got := closedLoopRate([]float64{2.5, 2.5, 2.5, 2.5}); math.Abs(got-400) > 1e-9 {
		t.Errorf("rate = %v, want 400", got)
	}
	if got := closedLoopRate(nil); got != 0 {
		t.Errorf("rate of nothing = %v", got)
	}
}
