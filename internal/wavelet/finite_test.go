package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"walrus/internal/colorspace"
	"walrus/internal/imgio"
)

// poisonCase is one image with one non-finite sample.
type poisonCase struct {
	name string
	im   *imgio.Image
}

// poisonCases returns, for a w×h image, NaN, +Inf and -Inf placed in
// turn at a pixel the base windows read, in the last row, in the last
// column and in the last corner, each in a different channel. With base
// step 2 and an odd side, the last row or column is read by no window.
func poisonCases(w, h int) []poisonCase {
	rng := rand.New(rand.NewSource(int64(w*1000 + h)))
	clean := imgio.New(w, h, 3)
	for i := range clean.Pix {
		clean.Pix[i] = rng.Float64()
	}
	var out []poisonCase
	for vi, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pi, at := range [][2]int{{w / 3, h / 2}, {w / 2, h - 1}, {w - 1, h / 3}, {w - 1, h - 1}} {
			im := clean.Clone()
			c := (vi + pi) % 3
			im.Set(c, at[0], at[1], v)
			out = append(out, poisonCase{fmt.Sprintf("%dx%d %v at (%d,%d) channel %d", w, h, v, at[0], at[1], c), im})
		}
	}
	return out
}

// TestSlidingRejectsNonFinite: ComputeSlidingWindowsRGB rejects every
// image CheckRGB rejects, with its error: a NaN or ±Inf at a read pixel,
// in the last row and in the last column, which no base window reads on
// an odd side, at odd and even sizes and at base steps 1 and 2.
func TestSlidingRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ w, h, step int }{
		{65, 67, 8}, {67, 64, 2}, {64, 65, 4}, {64, 64, 8}, {33, 35, 1}, {70, 69, 16},
	} {
		params := SlidingParams{MaxWindow: 32, MinWindow: 16, Signature: 2, Step: tc.step}
		clean := poisonCases(tc.w, tc.h)[0].im.Clone()
		clean.Set(0, tc.w/3, tc.h/2, 0.5)
		if _, err := ComputeSlidingWindowsRGB(clean, colorspace.YCC, params); err != nil {
			t.Fatalf("%dx%d step %d: a finite image is refused: %v", tc.w, tc.h, tc.step, err)
		}
		for _, pc := range poisonCases(tc.w, tc.h) {
			want := colorspace.CheckRGB(pc.im, colorspace.YCC)
			if want == nil {
				t.Fatalf("%s: fixture: CheckRGB accepts it", pc.name)
			}
			_, err := ComputeSlidingWindowsRGB(pc.im, colorspace.YCC, params)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("%s, step %d: got error %v, want %v", pc.name, tc.step, err, want)
			}
		}
	}
}
