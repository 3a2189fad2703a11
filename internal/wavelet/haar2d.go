package wavelet

import "fmt"

// Transform2D computes the two-dimensional non-standard Haar decomposition
// of a square power-of-two matrix, following procedure computeWavelet in
// Figure 2 of the WALRUS paper. One step of horizontal pairwise averaging
// and differencing is applied to each row, then one step of vertical
// averaging and differencing to each column, and the process recurses on
// the quadrant of averages. In the result:
//
//   - element (0,0) of the top-left 1×1 corner is the overall pixel average;
//   - the upper-right quadrant at each scale holds horizontal detail
//     coefficients, the lower-left quadrant vertical details, and the
//     lower-right quadrant diagonal details.
//
// The input matrix is not modified.
func Transform2D(m Matrix) (Matrix, error) {
	if !m.IsSquarePow2() {
		return Matrix{}, fmt.Errorf("wavelet: Transform2D requires a square power-of-two matrix, got %dx%d", m.Rows, m.Cols)
	}
	w := m.Rows
	out := NewMatrix(w, w)
	// cur holds the matrix of averages still to be decomposed.
	cur := m.Clone()
	for size := w; size >= 2; size /= 2 {
		half := size / 2
		next := NewMatrix(half, half)
		for r := 0; r < half; r++ {
			for c := 0; c < half; c++ {
				p00 := cur.At(2*r, 2*c)
				p01 := cur.At(2*r, 2*c+1)
				p10 := cur.At(2*r+1, 2*c)
				p11 := cur.At(2*r+1, 2*c+1)
				next.Set(r, c, (p00+p01+p10+p11)/4)
				// Horizontal detail: difference across columns.
				out.Set(r, half+c, (-p00+p01-p10+p11)/4)
				// Vertical detail: difference across rows.
				out.Set(half+r, c, (-p00-p01+p10+p11)/4)
				// Diagonal detail.
				out.Set(half+r, half+c, (p00-p01-p10+p11)/4)
			}
		}
		cur = next
	}
	out.Set(0, 0, cur.At(0, 0))
	return out, nil
}

// Inverse2D reconstructs the original matrix from a Transform2D result.
func Inverse2D(coeffs Matrix) (Matrix, error) {
	if !coeffs.IsSquarePow2() {
		return Matrix{}, fmt.Errorf("wavelet: Inverse2D requires a square power-of-two matrix, got %dx%d", coeffs.Rows, coeffs.Cols)
	}
	w := coeffs.Rows
	// avg starts as the 1×1 overall average and is refined scale by scale.
	avg := NewMatrix(1, 1)
	avg.Set(0, 0, coeffs.At(0, 0))
	for half := 1; half < w; half *= 2 {
		size := half * 2
		next := NewMatrix(size, size)
		for r := 0; r < half; r++ {
			for c := 0; c < half; c++ {
				a := avg.At(r, c)
				h := coeffs.At(r, half+c)
				v := coeffs.At(half+r, c)
				d := coeffs.At(half+r, half+c)
				next.Set(2*r, 2*c, a-h-v+d)
				next.Set(2*r, 2*c+1, a+h-v-d)
				next.Set(2*r+1, 2*c, a-h+v-d)
				next.Set(2*r+1, 2*c+1, a+h+v+d)
			}
		}
		avg = next
	}
	return avg, nil
}
