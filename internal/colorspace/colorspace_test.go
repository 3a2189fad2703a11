package colorspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"walrus/internal/imgio"
)

func randomRGB(rng *rand.Rand, w, h int) *imgio.Image {
	im := imgio.New(w, h, 3)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

func TestSpaceString(t *testing.T) {
	if RGB.String() != "RGB" || YCC.String() != "YCC" {
		t.Fatalf("String: %v %v", RGB, YCC)
	}
	if got := Space(99).String(); got != "Space(99)" {
		t.Fatalf("unknown space String = %q", got)
	}
}

func TestParse(t *testing.T) {
	for _, s := range []Space{RGB, YCC, YIQ, YUV, HSV, XYZ, Gray} {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Errorf("Parse(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := Parse("CMYK"); err == nil {
		t.Error("Parse accepted unknown space")
	}
}

func TestChannels(t *testing.T) {
	if Gray.Channels() != 1 || YCC.Channels() != 3 {
		t.Fatal("Channels wrong")
	}
}

// TestRoundTripAllSpaces: FromRGB then ToRGB recovers the original within
// numeric tolerance for every invertible space.
func TestRoundTripAllSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	im := randomRGB(rng, 16, 12)
	for _, s := range []Space{RGB, YCC, YIQ, YUV, HSV, XYZ} {
		conv, err := FromRGB(im, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		back, err := ToRGB(conv, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		d, err := imgio.MeanAbsDiff(im, back)
		if err != nil {
			t.Fatal(err)
		}
		// The published conversion matrices are rounded to 4-6 decimals, so
		// round trips are exact only to ~1e-4.
		if d > 1e-3 {
			t.Errorf("%v: round trip mean abs diff %v", s, d)
		}
	}
}

// TestGrayMatchesLuma: the gray conversion equals the Y channel of YCC.
func TestGrayMatchesLuma(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	im := randomRGB(rng, 8, 8)
	gray, err := FromRGB(im, Gray)
	if err != nil {
		t.Fatal(err)
	}
	ycc, err := FromRGB(im, YCC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gray.Pix {
		if math.Abs(gray.Pix[i]-ycc.Plane(0)[i]) > 1e-12 {
			t.Fatalf("gray != luma at %d", i)
		}
	}
}

// TestYCCRangeBounded: for RGB inputs in [0,1], all YCC samples stay within
// [0,1] — required for the signature epsilons to be scale-comparable.
func TestYCCRangeBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randomRGB(rng, 4, 4)
		conv, err := FromRGB(im, YCC)
		if err != nil {
			return false
		}
		for _, v := range conv.Pix {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestKnownColorsYCC: pure white and black map to the expected luma/chroma.
func TestKnownColorsYCC(t *testing.T) {
	im := imgio.New(2, 1, 3)
	im.SetRGB(0, 0, 1, 1, 1) // white
	im.SetRGB(1, 0, 0, 0, 0) // black
	conv, err := FromRGB(im, YCC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(conv.At(0, 0, 0)-1) > 1e-9 || math.Abs(conv.At(1, 0, 0)-0.5) > 1e-9 || math.Abs(conv.At(2, 0, 0)-0.5) > 1e-9 {
		t.Errorf("white YCC = %v,%v,%v", conv.At(0, 0, 0), conv.At(1, 0, 0), conv.At(2, 0, 0))
	}
	if math.Abs(conv.At(0, 1, 0)) > 1e-9 || math.Abs(conv.At(1, 1, 0)-0.5) > 1e-9 {
		t.Errorf("black YCC = %v,%v", conv.At(0, 1, 0), conv.At(1, 1, 0))
	}
}

// TestHSVKnownColors: primary red has hue 0, full saturation and value.
func TestHSVKnownColors(t *testing.T) {
	im := imgio.New(3, 1, 3)
	im.SetRGB(0, 0, 1, 0, 0)       // red
	im.SetRGB(1, 0, 0, 1, 0)       // green
	im.SetRGB(2, 0, 0.5, 0.5, 0.5) // gray
	conv, err := FromRGB(im, HSV)
	if err != nil {
		t.Fatal(err)
	}
	if conv.At(0, 0, 0) != 0 || conv.At(1, 0, 0) != 1 || conv.At(2, 0, 0) != 1 {
		t.Errorf("red HSV = %v,%v,%v", conv.At(0, 0, 0), conv.At(1, 0, 0), conv.At(2, 0, 0))
	}
	if math.Abs(conv.At(0, 1, 0)-1.0/3) > 1e-9 {
		t.Errorf("green hue = %v, want 1/3", conv.At(0, 1, 0))
	}
	if conv.At(1, 2, 0) != 0 {
		t.Errorf("gray saturation = %v, want 0", conv.At(1, 2, 0))
	}
}

func TestFromRGBErrors(t *testing.T) {
	if _, err := FromRGB(imgio.New(2, 2, 1), YCC); err == nil {
		t.Error("FromRGB accepted 1-channel input")
	}
	if _, err := ToRGB(imgio.New(2, 2, 3), Gray); err == nil {
		t.Error("ToRGB accepted channel mismatch")
	}
}

// TestFromRGBRejectsNonFinite: a NaN or infinite sample in any channel is
// an error for every target space.
func TestFromRGBRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for ch := 0; ch < 3; ch++ {
			for _, sp := range []Space{RGB, Gray, YCC, YIQ, YUV, HSV, XYZ} {
				im := randomRGB(rand.New(rand.NewSource(1)), 3, 2)
				im.Pix[ch*6+4] = v
				if _, err := FromRGB(im, sp); err == nil {
					t.Errorf("FromRGB(%v) accepted %v in channel %d", sp, v, ch)
				}
			}
		}
	}
}

// TestGrayToRGBReplicates: converting gray back to RGB replicates channels.
func TestGrayToRGBReplicates(t *testing.T) {
	g := imgio.New(2, 1, 1)
	g.Pix = []float64{0.25, 0.75}
	rgb, err := ToRGB(g, Gray)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 2; x++ {
		if rgb.At(0, x, 0) != rgb.At(1, x, 0) || rgb.At(1, x, 0) != rgb.At(2, x, 0) {
			t.Fatal("gray expansion not replicated")
		}
	}
}
