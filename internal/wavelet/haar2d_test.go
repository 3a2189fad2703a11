package wavelet

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func slicesAlmostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func randomMatrix(rng *rand.Rand, size int) Matrix {
	m := NewMatrix(size, size)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func TestTransform2DRejectsBadShapes(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {2, 4}, {0, 0}, {1, 1}, {6, 6}} {
		m := NewMatrix(dims[0], dims[1])
		if _, err := Transform2D(m); err == nil {
			t.Errorf("Transform2D accepted %dx%d", dims[0], dims[1])
		}
		if _, err := Inverse2D(m); err == nil {
			t.Errorf("Inverse2D accepted %dx%d", dims[0], dims[1])
		}
	}
}

// TestTransform2DAverage: coefficient (0,0) is the overall pixel average.
func TestTransform2DAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{2, 4, 8, 32} {
		m := randomMatrix(rng, size)
		sum := 0.0
		for _, v := range m.Data {
			sum += v
		}
		coeffs, err := Transform2D(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := sum / float64(size*size); !almostEqual(coeffs.At(0, 0), want) {
			t.Fatalf("size %d: coeff(0,0) = %v, want %v", size, coeffs.At(0, 0), want)
		}
	}
}

// TestTransform2DHandComputed verifies a 2x2 transform against hand
// calculation with the paper's averaging-and-differencing step.
func TestTransform2DHandComputed(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1) // p00
	m.Set(0, 1, 3) // p01 (right neighbor)
	m.Set(1, 0, 5) // p10 (below)
	m.Set(1, 1, 7)
	coeffs, err := Transform2D(m)
	if err != nil {
		t.Fatal(err)
	}
	// average = 4; horizontal = (-1+3-5+7)/4 = 1; vertical = (-1-3+5+7)/4 = 2;
	// diagonal = (1-3-5+7)/4 = 0.
	checks := []struct {
		r, c int
		want float64
	}{{0, 0, 4}, {0, 1, 1}, {1, 0, 2}, {1, 1, 0}}
	for _, ck := range checks {
		if got := coeffs.At(ck.r, ck.c); !almostEqual(got, ck.want) {
			t.Errorf("coeff(%d,%d) = %v, want %v", ck.r, ck.c, got, ck.want)
		}
	}
}

// TestInverse2DRoundTrip: Inverse2D(Transform2D(m)) == m.
func TestInverse2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{2, 4, 8, 16, 64} {
		m := randomMatrix(rng, size)
		coeffs, err := Transform2D(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Inverse2D(coeffs)
		if err != nil {
			t.Fatal(err)
		}
		if !slicesAlmostEqual(back.Data, m.Data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

// TestTransform2DConstantImage: a flat image transforms to a single average
// with all-zero details.
func TestTransform2DConstantImage(t *testing.T) {
	m := NewMatrix(16, 16)
	for i := range m.Data {
		m.Data[i] = 0.5
	}
	coeffs, err := Transform2D(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range coeffs.Data {
		want := 0.0
		if i == 0 {
			want = 0.5
		}
		if !almostEqual(v, want) {
			t.Fatalf("coefficient %d = %v, want %v", i, v, want)
		}
	}
}

// TestTransform2DUpperLeftIsBlockAverageTransform: the top-left s×s corner
// of the transform of a w×w image equals the full transform of the s×s
// matrix of (w/s)×(w/s) block averages. This is the property that makes the
// low-band signature scale-invariant and underlies the DP algorithm.
func TestTransform2DUpperLeftIsBlockAverageTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w, s = 32, 4
	m := randomMatrix(rng, w)
	full, err := Transform2D(m)
	if err != nil {
		t.Fatal(err)
	}
	block := w / s
	avg := NewMatrix(s, s)
	for r := 0; r < s; r++ {
		for c := 0; c < s; c++ {
			sum := 0.0
			for dr := 0; dr < block; dr++ {
				for dc := 0; dc < block; dc++ {
					sum += m.At(r*block+dr, c*block+dc)
				}
			}
			avg.Set(r, c, sum/float64(block*block))
		}
	}
	small, err := Transform2D(avg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < s; r++ {
		for c := 0; c < s; c++ {
			if !almostEqual(full.At(r, c), small.At(r, c)) {
				t.Fatalf("corner(%d,%d): full %v vs block-average %v", r, c, full.At(r, c), small.At(r, c))
			}
		}
	}
}
