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
	if im.C != 3 {
		return nil, fmt.Errorf("colorspace: FromRGB requires 3 channels, got %d", im.C)
	}
	// poison stays ±0 while every sample is finite: v*0 is ±0 for finite
	// v and NaN for NaN or ±Inf, and a NaN survives every later addition.
	// One multiply-add per sample costs a fraction of a branch per sample.
	poison := 0.0
	if to == RGB {
		for _, v := range im.Pix {
			poison += v * 0
		}
		if poison != 0 {
			return nil, nonFinitePixel(im)
		}
		return im.Clone(), nil
	}
	out := imgio.New(im.W, im.H, to.Channels())
	n := im.W * im.H
	r, g, b := im.Plane(0), im.Plane(1), im.Plane(2)
	for i := 0; i < n; i++ {
		poison += r[i]*0 + g[i]*0 + b[i]*0
		switch to {
		case Gray:
			out.Pix[i] = 0.299*r[i] + 0.587*g[i] + 0.114*b[i]
		case YCC:
			y, cb, cr := rgbToYCC(r[i], g[i], b[i])
			out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = y, cb, cr
		case YIQ:
			y := 0.299*r[i] + 0.587*g[i] + 0.114*b[i]
			iq := 0.595716*r[i] - 0.274453*g[i] - 0.321263*b[i]
			q := 0.211456*r[i] - 0.522591*g[i] + 0.311135*b[i]
			// I in [-0.596, 0.596], Q in [-0.523, 0.523]; center on 0.5.
			out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = y, iq/1.2+0.5, q/1.1+0.5
		case YUV:
			y := 0.299*r[i] + 0.587*g[i] + 0.114*b[i]
			u := 0.492 * (b[i] - y)
			v := 0.877 * (r[i] - y)
			out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = y, u/0.872+0.5, v/1.23+0.5
		case HSV:
			h, s, v := rgbToHSV(r[i], g[i], b[i])
			out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = h, s, v
		case XYZ:
			// sRGB primaries, linear-light approximation (no gamma), scaled
			// so white maps near 1.
			x := 0.4124*r[i] + 0.3576*g[i] + 0.1805*b[i]
			y := 0.2126*r[i] + 0.7152*g[i] + 0.0722*b[i]
			z := 0.0193*r[i] + 0.1192*g[i] + 0.9505*b[i]
			out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = x/0.9505, y, z/1.089
		default:
			return nil, fmt.Errorf("colorspace: unsupported target %v", to)
		}
	}
	if poison != 0 {
		return nil, nonFinitePixel(im)
	}
	return out, nil
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

// rgbToYCC implements ITU-R BT.601 with chroma centered on 0.5.
func rgbToYCC(r, g, b float64) (y, cb, cr float64) {
	y = 0.299*r + 0.587*g + 0.114*b
	cb = 0.5 - 0.168736*r - 0.331264*g + 0.5*b
	cr = 0.5 + 0.5*r - 0.418688*g - 0.081312*b
	return
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
