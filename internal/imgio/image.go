// Package imgio provides the image substrate WALRUS is built on: a planar
// float-channel image type, PPM/PGM codecs, adapters for the Go standard
// library's image types, and the geometric / photometric transforms
// (resize, crop, paste, translate, flip, color shift, dithering, noise)
// used by the dataset generator and the robustness experiments. It stands
// in for the parts of the ImageMagick library the paper's implementation
// used that some program here runs; MeanAbsDiff is kept as the tests'
// image comparison.
package imgio

import (
	"fmt"
	"math"
)

// Image is a planar multi-channel image. Channel values are float64s,
// nominally in [0,1]. Pixels are stored plane-major: channel c occupies
// Pix[c*W*H : (c+1)*W*H] in row-major order.
type Image struct {
	W, H int
	C    int // number of channels (1 for grayscale, 3 for color)
	Pix  []float64
}

// New allocates a zeroed w×h image with c channels.
func New(w, h, c int) *Image {
	return &Image{W: w, H: h, C: c, Pix: make([]float64, w*h*c)}
}

// Plane returns channel c's pixels in row-major order. The returned slice
// aliases the image.
func (im *Image) Plane(c int) []float64 {
	n := im.W * im.H
	return im.Pix[c*n : (c+1)*n]
}

// At returns the value of channel c at pixel (x, y).
func (im *Image) At(c, x, y int) float64 { return im.Pix[c*im.W*im.H+y*im.W+x] }

// Set assigns the value of channel c at pixel (x, y).
func (im *Image) Set(c, x, y int, v float64) { im.Pix[c*im.W*im.H+y*im.W+x] = v }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, C: im.C, Pix: make([]float64, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Validate checks structural consistency.
func (im *Image) Validate() error {
	if im.W <= 0 || im.H <= 0 || im.C <= 0 {
		return fmt.Errorf("imgio: invalid dimensions %dx%dx%d", im.W, im.H, im.C)
	}
	if len(im.Pix) != im.W*im.H*im.C {
		return fmt.Errorf("imgio: pixel buffer has %d values, want %d", len(im.Pix), im.W*im.H*im.C)
	}
	return nil
}

// Clamp limits every sample to [0,1] in place and returns the image.
func (im *Image) Clamp() *Image {
	for i, v := range im.Pix {
		im.Pix[i] = clamp01(v)
	}
	return im
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Fill sets every pixel of channel c to v.
func (im *Image) Fill(c int, v float64) {
	p := im.Plane(c)
	for i := range p {
		p[i] = v
	}
}

// FillRGB sets all pixels of a 3-channel image to (r, g, b).
func (im *Image) FillRGB(r, g, b float64) {
	im.Fill(0, r)
	im.Fill(1, g)
	im.Fill(2, b)
}

// SetRGB assigns all three channels at pixel (x, y), ignoring coordinates
// outside the image (convenient for shape rasterizers).
func (im *Image) SetRGB(x, y int, r, g, b float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Set(0, x, y, r)
	im.Set(1, x, y, g)
	im.Set(2, x, y, b)
}

// MeanAbsDiff returns the mean absolute per-sample difference between two
// images of identical shape, a crude similarity used by tests.
func MeanAbsDiff(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H || a.C != b.C {
		return 0, fmt.Errorf("imgio: shape mismatch %dx%dx%d vs %dx%dx%d", a.W, a.H, a.C, b.W, b.H, b.C)
	}
	sum := 0.0
	for i := range a.Pix {
		sum += math.Abs(a.Pix[i] - b.Pix[i])
	}
	return sum / float64(len(a.Pix)), nil
}
