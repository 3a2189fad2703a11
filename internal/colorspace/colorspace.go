// Package colorspace converts planar float images between the color spaces
// the WALRUS implementation handles (Section 6.1 mentions YCC and RGB; the
// paper's infrastructure, ImageMagick, also supported XYZ, YIQ, YUV and
// HSV, which we provide for parity). All conversions operate on samples
// nominally in [0,1] per channel; chroma channels are offset so they also
// land in [0,1], keeping euclidean signature distances comparable across
// spaces.
package colorspace

import (
	"fmt"

	"walrus/internal/imgio"
)

// Space identifies a color space.
type Space int

const (
	RGB Space = iota
	YCC       // ITU-R BT.601 YCbCr, the paper's primary space
	YIQ
	YUV
	HSV
	XYZ
	Gray
)

var names = map[Space]string{
	RGB: "RGB", YCC: "YCC", YIQ: "YIQ", YUV: "YUV", HSV: "HSV", XYZ: "XYZ", Gray: "Gray",
}

func (s Space) String() string {
	if n, ok := names[s]; ok {
		return n
	}
	return fmt.Sprintf("Space(%d)", int(s))
}

// Parse maps a case-sensitive space name ("RGB", "YCC", ...) to a Space.
func Parse(name string) (Space, error) {
	for s, n := range names {
		if n == name {
			return s, nil
		}
	}
	return RGB, fmt.Errorf("colorspace: unknown space %q", name)
}

// Channels returns the channel count of images in this space.
func (s Space) Channels() int {
	if s == Gray {
		return 1
	}
	return 3
}

// FromRGB converts a 3-channel RGB image to the target space. The input is
// not modified. Converting to RGB returns a clone. A NaN or infinite
// sample is an error: it would carry into every signature of the image.
func FromRGB(im *imgio.Image, to Space) (*imgio.Image, error) {
	if err := CheckRGB(im, to); err != nil {
		return nil, err
	}
	out := imgio.New(im.W, im.H, to.Channels())
	if to == Gray {
		ConvertRow(to, out.Pix, nil, nil, im.Plane(0), im.Plane(1), im.Plane(2))
	} else {
		ConvertRow(to, out.Plane(0), out.Plane(1), out.Plane(2), im.Plane(0), im.Plane(1), im.Plane(2))
	}
	return out, nil
}

// CheckRGB reports whether im can be converted to space to: it must be a
// well-formed 3-channel image, to must be a known space, and every sample
// must be finite, whether or not a later stage reads it.
func CheckRGB(im *imgio.Image, to Space) error {
	if im.C != 3 {
		return fmt.Errorf("colorspace: RGB input needs 3 channels, got %d", im.C)
	}
	if err := im.Validate(); err != nil {
		return err
	}
	if _, ok := names[to]; !ok {
		return fmt.Errorf("colorspace: unsupported target %v", to)
	}
	// Each poison sum stays ±0 while every sample is finite: v*0 is ±0
	// for finite v and NaN for NaN or ±Inf, and a NaN survives every
	// later addition. Four independent sums keep the adds from waiting
	// on each other; one multiply-add per sample costs a fraction of a
	// branch per sample.
	var p0, p1, p2, p3 float64
	pix := im.Pix
	for len(pix) >= 4 {
		p0 += pix[0] * 0
		p1 += pix[1] * 0
		p2 += pix[2] * 0
		p3 += pix[3] * 0
		pix = pix[4:]
	}
	for _, v := range pix {
		p0 += v * 0
	}
	if p0+p1+p2+p3 != 0 {
		return nonFinitePixel(im)
	}
	return nil
}

// ConvertRow converts the RGB samples r[i], g[i], b[i] to space to,
// writing channel k of sample i to dk[i] (for Gray only d0 is written;
// to must be a known space). It is the one place each space's forward
// arithmetic is dispatched: FromRGB calls it on whole planes and the
// sliding-window DP's base level on the pixel rows it reads, so the two
// agree bit for bit. The space is switched on once per call, so the
// per-pixel arithmetic inlines into the loop.
func ConvertRow(to Space, d0, d1, d2, r, g, b []float64) {
	switch to {
	case RGB:
		copy(d0, r)
		copy(d1, g)
		copy(d2, b)
	case Gray:
		for i := range d0 {
			d0[i] = luma(r[i], g[i], b[i])
		}
	case YCC:
		for i := range d0 {
			d0[i], d1[i], d2[i] = rgbToYCC(r[i], g[i], b[i])
		}
	case YIQ:
		for i := range d0 {
			d0[i], d1[i], d2[i] = rgbToYIQ(r[i], g[i], b[i])
		}
	case YUV:
		for i := range d0 {
			d0[i], d1[i], d2[i] = rgbToYUV(r[i], g[i], b[i])
		}
	case HSV:
		for i := range d0 {
			d0[i], d1[i], d2[i] = rgbToHSV(r[i], g[i], b[i])
		}
	case XYZ:
		for i := range d0 {
			d0[i], d1[i], d2[i] = rgbToXYZ(r[i], g[i], b[i])
		}
	}
}

// nonFinitePixel reports the first pixel of im with a NaN or infinite
// sample.
func nonFinitePixel(im *imgio.Image) error {
	n := im.W * im.H
	for i := 0; i < n; i++ {
		r, g, b := im.Pix[i], im.Pix[n+i], im.Pix[2*n+i]
		if r*0 != 0 || g*0 != 0 || b*0 != 0 {
			return fmt.Errorf("colorspace: pixel (%d,%d) is not finite: rgb(%v, %v, %v)", i%im.W, i/im.W, r, g, b)
		}
	}
	return fmt.Errorf("colorspace: image has a sample that is not finite")
}

// ToRGB converts an image in the given space back to RGB.
func ToRGB(im *imgio.Image, from Space) (*imgio.Image, error) {
	if from == RGB {
		return im.Clone(), nil
	}
	if im.C != from.Channels() {
		return nil, fmt.Errorf("colorspace: image has %d channels, %v needs %d", im.C, from, from.Channels())
	}
	out := imgio.New(im.W, im.H, 3)
	n := im.W * im.H
	for i := 0; i < n; i++ {
		var r, g, b float64
		switch from {
		case Gray:
			r = im.Pix[i]
			g, b = r, r
		case YCC:
			r, g, b = yccToRGB(im.Pix[i], im.Pix[n+i], im.Pix[2*n+i])
		case YIQ:
			y := im.Pix[i]
			iq := (im.Pix[n+i] - 0.5) * 1.2
			q := (im.Pix[2*n+i] - 0.5) * 1.1
			r = y + 0.9563*iq + 0.6210*q
			g = y - 0.2721*iq - 0.6474*q
			b = y - 1.1070*iq + 1.7046*q
		case YUV:
			y := im.Pix[i]
			u := (im.Pix[n+i] - 0.5) * 0.872
			v := (im.Pix[2*n+i] - 0.5) * 1.23
			r = y + v/0.877
			b = y + u/0.492
			g = (y - 0.299*r - 0.114*b) / 0.587
		case HSV:
			r, g, b = hsvToRGB(im.Pix[i], im.Pix[n+i], im.Pix[2*n+i])
		case XYZ:
			x := im.Pix[i] * 0.9505
			y := im.Pix[n+i]
			z := im.Pix[2*n+i] * 1.089
			r = 3.2406*x - 1.5372*y - 0.4986*z
			g = -0.9689*x + 1.8758*y + 0.0415*z
			b = 0.0557*x - 0.2040*y + 1.0570*z
		default:
			return nil, fmt.Errorf("colorspace: unsupported source %v", from)
		}
		out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = r, g, b
	}
	return out, nil
}

// luma is the ITU-R BT.601 luma shared by Gray, YCC, YIQ and YUV.
func luma(r, g, b float64) float64 { return 0.299*r + 0.587*g + 0.114*b }

// rgbToYCC implements ITU-R BT.601 with chroma centered on 0.5.
func rgbToYCC(r, g, b float64) (y, cb, cr float64) {
	y = luma(r, g, b)
	cb = 0.5 - 0.168736*r - 0.331264*g + 0.5*b
	cr = 0.5 + 0.5*r - 0.418688*g - 0.081312*b
	return
}

// rgbToYIQ centers I in [-0.596, 0.596] and Q in [-0.523, 0.523] on 0.5.
func rgbToYIQ(r, g, b float64) (y, i, q float64) {
	y = luma(r, g, b)
	i = 0.595716*r - 0.274453*g - 0.321263*b
	q = 0.211456*r - 0.522591*g + 0.311135*b
	return y, i/1.2 + 0.5, q/1.1 + 0.5
}

func rgbToYUV(r, g, b float64) (y, u, v float64) {
	y = luma(r, g, b)
	u = 0.492 * (b - y)
	v = 0.877 * (r - y)
	return y, u/0.872 + 0.5, v/1.23 + 0.5
}

// rgbToXYZ uses sRGB primaries, linear-light approximation (no gamma),
// scaled so white maps near 1.
func rgbToXYZ(r, g, b float64) (x, y, z float64) {
	x = 0.4124*r + 0.3576*g + 0.1805*b
	y = 0.2126*r + 0.7152*g + 0.0722*b
	z = 0.0193*r + 0.1192*g + 0.9505*b
	return x / 0.9505, y, z / 1.089
}

func yccToRGB(y, cb, cr float64) (r, g, b float64) {
	r = y + 1.402*(cr-0.5)
	g = y - 0.344136*(cb-0.5) - 0.714136*(cr-0.5)
	b = y + 1.772*(cb-0.5)
	return
}

func rgbToHSV(r, g, b float64) (h, s, v float64) {
	maxv := max(r, max(g, b))
	minv := min(r, min(g, b))
	v = maxv
	d := maxv - minv
	if maxv > 0 {
		s = d / maxv
	}
	if d == 0 {
		return 0, s, v
	}
	switch maxv {
	case r:
		h = (g - b) / d
		if h < 0 {
			h += 6
		}
	case g:
		h = (b-r)/d + 2
	default:
		h = (r-g)/d + 4
	}
	h /= 6
	return
}

func hsvToRGB(h, s, v float64) (r, g, b float64) {
	if s == 0 {
		return v, v, v
	}
	h = h * 6
	if h >= 6 {
		h -= 6
	}
	i := int(h)
	f := h - float64(i)
	p := v * (1 - s)
	q := v * (1 - s*f)
	t := v * (1 - s*(1-f))
	switch i {
	case 0:
		return v, t, p
	case 1:
		return q, v, p
	case 2:
		return p, v, t
	case 3:
		return p, q, v
	case 4:
		return t, p, v
	default:
		return v, p, q
	}
}
