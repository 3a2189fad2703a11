// Package region implements WALRUS's region extraction (Sections 5.2–5.3
// of the paper): it computes wavelet signatures for sliding windows of an
// image, clusters the window signatures with BIRCH under the cluster
// epsilon εc, and turns each cluster into a Region carrying a signature
// (the cluster centroid, or alternatively the bounding box of the member
// signatures) and a coarse k×k bitmap of the image pixels covered by the
// cluster's windows. The bitmap is what the image-matching step uses to
// compute covered areas (Definition 4.3).
package region

import (
	"fmt"
	"math/bits"
)

// Bitmap is a coarse k×k coverage bitmap. Bit (bx, by) is set when the
// corresponding cell of the image is covered by at least one window of the
// region. A 16×16 bitmap costs 32 bytes, the figure quoted in Section 6.4.
type Bitmap struct {
	K     int
	Words []uint64
}

// NewBitmap creates an empty k×k bitmap.
func NewBitmap(k int) Bitmap {
	return Bitmap{K: k, Words: make([]uint64, (k*k+63)/64)}
}

// Set sets the bit at grid cell (bx, by).
func (b *Bitmap) Set(bx, by int) {
	i := by*b.K + bx
	b.Words[i/64] |= 1 << (i % 64)
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Fraction returns the covered fraction of the image, Count/K².
func (b *Bitmap) Fraction() float64 {
	if b.K == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.K*b.K)
}

// UnionWith ORs other into b. The bitmaps must have the same K.
func (b *Bitmap) UnionWith(other Bitmap) error {
	if b.K != other.K {
		return fmt.Errorf("region: bitmap grids differ: %d vs %d", b.K, other.K)
	}
	for i := range b.Words {
		b.Words[i] |= other.Words[i]
	}
	return nil
}

// Clone returns a deep copy.
func (b Bitmap) Clone() Bitmap {
	out := Bitmap{K: b.K, Words: make([]uint64, len(b.Words))}
	copy(out.Words, b.Words)
	return out
}

// CoverWindow sets every grid cell that intersects the pixel rectangle
// [x, x+w) × [y, y+h) of an imgW×imgH image.
func (b *Bitmap) CoverWindow(x, y, w, h, imgW, imgH int) {
	if imgW <= 0 || imgH <= 0 {
		return
	}
	bx0 := x * b.K / imgW
	bx1 := ((x+w)*b.K + imgW - 1) / imgW // exclusive
	by0 := y * b.K / imgH
	by1 := ((y+h)*b.K + imgH - 1) / imgH
	if bx0 < 0 {
		bx0 = 0
	}
	if by0 < 0 {
		by0 = 0
	}
	if bx1 > b.K {
		bx1 = b.K
	}
	if by1 > b.K {
		by1 = b.K
	}
	for by := by0; by < by1; by++ {
		for bx := bx0; bx < bx1; bx++ {
			b.Set(bx, by)
		}
	}
}
