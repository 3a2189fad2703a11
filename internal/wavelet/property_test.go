package wavelet

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// randMatrix fills a w×w matrix with values in [0,1).
func randMatrix(rng *rand.Rand, w int) Matrix {
	m := NewMatrix(w, w)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// TestHaar2DRoundTripRandom: Inverse2D(Transform2D(m)) == m on random
// matrices of every supported size.
func TestHaar2DRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{2, 4, 8, 16, 32, 64} {
		for trial := 0; trial < 5; trial++ {
			m := randMatrix(rng, w)
			coeffs, err := Transform2D(m)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Inverse2D(coeffs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Data {
				if math.Abs(m.Data[i]-back.Data[i]) > 1e-9 {
					t.Fatalf("w=%d trial %d: element %d: %v -> %v", w, trial, i, m.Data[i], back.Data[i])
				}
			}
		}
	}
}

// TestHaar2DParseval checks energy preservation. The transform's averaging
// steps divide by 4 where the orthonormal 2D Haar step divides by 2, so a
// coefficient in detail band level j of a 2^J-sided matrix is the
// orthonormal coefficient scaled by 2^-(J-j), and the overall average is
// scaled by 2^-J. Undoing those scales, Parseval's identity must hold:
//
//	sum(pixel²) = 4^J·avg² + Σ_j 4^(J-j) · Σ_{band j} c²
func TestHaar2DParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{2, 4, 8, 16, 32} {
		J := bits.TrailingZeros(uint(w)) // log2(w)
		for trial := 0; trial < 5; trial++ {
			m := randMatrix(rng, w)
			pixelEnergy := 0.0
			for _, v := range m.Data {
				pixelEnergy += v * v
			}
			coeffs, err := Transform2D(m)
			if err != nil {
				t.Fatal(err)
			}
			avg := coeffs.At(0, 0)
			coeffEnergy := math.Pow(4, float64(J)) * avg * avg
			for r := 0; r < w; r++ {
				for c := 0; c < w; c++ {
					if r == 0 && c == 0 {
						continue
					}
					// Band level of a detail coefficient: floor(log2(max(r,c))).
					j := bits.Len(uint(max(r, c))) - 1
					v := coeffs.At(r, c)
					coeffEnergy += math.Pow(4, float64(J-j)) * v * v
				}
			}
			if rel := math.Abs(coeffEnergy-pixelEnergy) / pixelEnergy; rel > 1e-9 {
				t.Fatalf("w=%d trial %d: coefficient energy %v, pixel energy %v (rel err %v)",
					w, trial, coeffEnergy, pixelEnergy, rel)
			}
		}
	}
}

// TestHaar2DLinearity: the transform of a·x + b·y is a·T(x) + b·T(y).
func TestHaar2DLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const w = 16
	x, y := randMatrix(rng, w), randMatrix(rng, w)
	a, b := 2.5, -1.25
	mix := NewMatrix(w, w)
	for i := range mix.Data {
		mix.Data[i] = a*x.Data[i] + b*y.Data[i]
	}
	tx, err := Transform2D(x)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := Transform2D(y)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := Transform2D(mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tm.Data {
		want := a*tx.Data[i] + b*ty.Data[i]
		if math.Abs(tm.Data[i]-want) > 1e-9 {
			t.Fatalf("element %d: %v, want %v", i, tm.Data[i], want)
		}
	}
}

// TestSlidingWorkersBitwiseIdentical: no Workers setting changes a byte of
// any level of the pyramid. The DP runs on its caller's goroutine and
// ignores the field, which is kept for callers that still set it.
func TestSlidingWorkersBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const imgW, imgH = 96, 80
	plane := make([]float64, imgW*imgH)
	for i := range plane {
		plane[i] = rng.Float64()
	}
	base := SlidingParams{MaxWindow: 32, Signature: 4, Step: 2, Workers: 1}
	serial, err := ComputeSlidingWindows(plane, imgW, imgH, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16} {
		p := base
		p.Workers = workers
		par, err := ComputeSlidingWindows(plane, imgW, imgH, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range serial.Sizes() {
			sg, pg := serial.Level(win), par.Level(win)
			if pg == nil {
				t.Fatalf("workers=%d: level %d missing", workers, win)
			}
			if len(sg.Data) != len(pg.Data) {
				t.Fatalf("workers=%d level %d: %d values vs %d", workers, win, len(sg.Data), len(pg.Data))
			}
			for i := range sg.Data {
				if sg.Data[i] != pg.Data[i] {
					t.Fatalf("workers=%d level %d: value %d differs: %v vs %v",
						workers, win, i, sg.Data[i], pg.Data[i])
				}
			}
		}
	}
}
