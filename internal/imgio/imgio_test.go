package imgio

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomImage(rng *rand.Rand, w, h, c int) *Image {
	im := New(w, h, c)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

func TestImageAccessors(t *testing.T) {
	im := New(4, 3, 3)
	im.Set(2, 1, 2, 0.75)
	if got := im.At(2, 1, 2); got != 0.75 {
		t.Fatalf("At = %v, want 0.75", got)
	}
	if got := im.Plane(2)[2*4+1]; got != 0.75 {
		t.Fatalf("Plane value = %v, want 0.75", got)
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Image{W: 2, H: 2, C: 1, Pix: make([]float64, 3)}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted inconsistent image")
	}
	if err := (&Image{W: 0, H: 1, C: 1}).Validate(); err == nil {
		t.Error("Validate accepted zero width")
	}
}

func TestCloneIsDeep(t *testing.T) {
	im := New(2, 2, 1)
	cl := im.Clone()
	cl.Set(0, 0, 0, 1)
	if im.At(0, 0, 0) != 0 {
		t.Fatal("Clone shares pixel storage")
	}
}

func TestClamp(t *testing.T) {
	im := New(2, 1, 1)
	im.Pix[0], im.Pix[1] = -0.5, 1.5
	im.Clamp()
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("Clamp = %v", im.Pix)
	}
}

func TestPPMRoundTripBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []int{1, 3} {
		im := randomImage(rng, 17, 9, c)
		var buf bytes.Buffer
		if err := EncodePPM(&buf, im); err != nil {
			t.Fatal(err)
		}
		back, err := DecodePPM(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.W != im.W || back.H != im.H || back.C != im.C {
			t.Fatalf("shape %dx%dx%d, want %dx%dx%d", back.W, back.H, back.C, im.W, im.H, im.C)
		}
		// 8-bit quantization allows error up to 1/255 (plus rounding).
		for i := range im.Pix {
			if math.Abs(im.Pix[i]-back.Pix[i]) > 1.0/255+1e-9 {
				t.Fatalf("sample %d: %v vs %v", i, im.Pix[i], back.Pix[i])
			}
		}
	}
}

func TestPPMDecodeASCII(t *testing.T) {
	src := "P3\n# a comment\n2 2\n255\n255 0 0  0 255 0\n0 0 255  255 255 255\n"
	im, err := DecodePPM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 2 || im.H != 2 || im.C != 3 {
		t.Fatalf("shape %dx%dx%d", im.W, im.H, im.C)
	}
	if im.At(0, 0, 0) != 1 || im.At(1, 1, 0) != 1 || im.At(2, 0, 1) != 1 {
		t.Fatalf("pixels wrong: %v", im.Pix)
	}
	gray := "P2\n2 1\n100\n50 100\n"
	gm, err := DecodePPM(strings.NewReader(gray))
	if err != nil {
		t.Fatal(err)
	}
	if gm.C != 1 || math.Abs(gm.Pix[0]-0.5) > 1e-9 || gm.Pix[1] != 1 {
		t.Fatalf("PGM decode: %v", gm.Pix)
	}
}

func TestPPMDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"P9\n2 2\n255\n",
		"P6\n-2 2\n255\n",
		"P6\n2 2\n0\n",
		"P6\n2 2\n255\nxx", // truncated body
		"P3\n2 2\n255\n1 2\n",
	}
	for _, src := range cases {
		if _, err := DecodePPM(strings.NewReader(src)); err == nil {
			t.Errorf("DecodePPM accepted %q", src)
		}
	}
}

func TestEncodePPMRejectsOddChannels(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodePPM(&buf, New(2, 2, 2)); err == nil {
		t.Error("EncodePPM accepted 2-channel image")
	}
}

func TestStdImageRoundTrip(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 3, 2))
	src.SetRGBA(1, 1, color.RGBA{R: 255, G: 128, B: 0, A: 255})
	im := FromStdImage(src)
	if im.W != 3 || im.H != 2 || im.C != 3 {
		t.Fatalf("shape %dx%dx%d", im.W, im.H, im.C)
	}
	if math.Abs(im.At(0, 1, 1)-1) > 1e-3 || math.Abs(im.At(1, 1, 1)-128.0/255) > 1e-2 {
		t.Fatalf("pixel (1,1) = %v,%v,%v", im.At(0, 1, 1), im.At(1, 1, 1), im.At(2, 1, 1))
	}
	back := ToStdImage(im)
	r, g, b, _ := back.At(1, 1).RGBA()
	if r>>8 != 255 || (g>>8 != 128 && g>>8 != 127) || b>>8 != 0 {
		t.Fatalf("round trip pixel = %d,%d,%d", r>>8, g>>8, b>>8)
	}
}

func TestToStdImageGray(t *testing.T) {
	im := New(1, 1, 1)
	im.Set(0, 0, 0, 0.5)
	out := ToStdImage(im)
	r, g, b, _ := out.At(0, 0).RGBA()
	if r != g || g != b {
		t.Fatalf("gray pixel not replicated: %d,%d,%d", r>>8, g>>8, b>>8)
	}
}

func TestResizeDownAveragesBoxes(t *testing.T) {
	im := New(4, 4, 1)
	// Top-left 2x2 box all ones, everything else zero.
	im.Set(0, 0, 0, 1)
	im.Set(0, 1, 0, 1)
	im.Set(0, 0, 1, 1)
	im.Set(0, 1, 1, 1)
	small, err := Resize(im, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.At(0, 0, 0) != 1 || small.At(0, 1, 0) != 0 || small.At(0, 0, 1) != 0 {
		t.Fatalf("Resize: %v", small.Pix)
	}
}

func TestResizeUpPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	im := randomImage(rng, 8, 8, 1)
	big, err := Resize(im, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(im *Image) float64 {
		s := 0.0
		for _, v := range im.Pix {
			s += v
		}
		return s / float64(len(im.Pix))
	}
	if math.Abs(mean(im)-mean(big)) > 1e-9 {
		t.Fatalf("mean changed: %v vs %v", mean(im), mean(big))
	}
}

func TestResizeErrors(t *testing.T) {
	if _, err := Resize(New(2, 2, 1), 0, 2); err == nil {
		t.Error("Resize accepted zero width")
	}
}

func TestCrop(t *testing.T) {
	im := New(4, 4, 1)
	im.Set(0, 2, 3, 0.9)
	sub, err := Crop(im, 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.At(0, 0, 1) != 0.9 {
		t.Fatalf("Crop content wrong: %v", sub.Pix)
	}
	if _, err := Crop(im, 3, 3, 2, 2); err == nil {
		t.Error("Crop accepted out-of-bounds rectangle")
	}
}

func TestTranslate(t *testing.T) {
	im := New(3, 3, 1)
	im.Set(0, 0, 0, 1)
	out := Translate(im, 2, 1, 0.25)
	if out.At(0, 2, 1) != 1 {
		t.Fatalf("content not shifted: %v", out.Pix)
	}
	if out.At(0, 0, 0) != 0.25 {
		t.Fatalf("vacated pixel = %v, want fill 0.25", out.At(0, 0, 0))
	}
}

func TestFlipH(t *testing.T) {
	im := New(3, 1, 1)
	im.Pix = []float64{1, 2, 3}
	out := FlipH(im)
	if out.Pix[0] != 3 || out.Pix[2] != 1 {
		t.Fatalf("FlipH = %v", out.Pix)
	}
	// Flipping twice is the identity.
	back := FlipH(out)
	for i := range im.Pix {
		if back.Pix[i] != im.Pix[i] {
			t.Fatalf("double flip changed pixels: %v", back.Pix)
		}
	}
}

func TestColorShiftClamps(t *testing.T) {
	im := New(1, 1, 3)
	im.Pix = []float64{0.9, 0.5, 0.1}
	out := ColorShift(im, 0.3, -0.2, -0.3)
	want := []float64{1, 0.3, 0}
	for i := range want {
		if math.Abs(out.Pix[i]-want[i]) > 1e-9 {
			t.Fatalf("ColorShift = %v, want %v", out.Pix, want)
		}
	}
}

func TestAddNoiseBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	im := randomImage(rng, 8, 8, 3)
	out := AddNoise(im, rng, 0.1)
	for i := range out.Pix {
		if out.Pix[i] < 0 || out.Pix[i] > 1 {
			t.Fatalf("noisy sample %d out of range: %v", i, out.Pix[i])
		}
		if math.Abs(out.Pix[i]-im.Pix[i]) > 0.1+1e-9 {
			t.Fatalf("noise amplitude exceeded at %d", i)
		}
	}
}

func TestDitherPreservesMeanApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	im := randomImage(rng, 32, 32, 1)
	out := Dither(im, 4)
	var m1, m2 float64
	for i := range im.Pix {
		m1 += im.Pix[i]
		m2 += out.Pix[i]
	}
	m1 /= float64(len(im.Pix))
	m2 /= float64(len(im.Pix))
	if math.Abs(m1-m2) > 0.02 {
		t.Fatalf("dithering shifted mean: %v vs %v", m1, m2)
	}
	// All output values must be (nearly) on the quantization lattice or
	// clamped; with error diffusion neighbors absorb residuals, so just
	// check the range.
	for _, v := range out.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("dithered sample out of range: %v", v)
		}
	}
}

func TestPaste(t *testing.T) {
	dst := New(4, 4, 1)
	src := New(2, 2, 1)
	src.Fill(0, 1)
	if err := Paste(dst, src, 3, 3); err != nil {
		t.Fatal(err)
	}
	if dst.At(0, 3, 3) != 1 {
		t.Fatal("paste did not copy")
	}
	if dst.At(0, 2, 2) != 0 {
		t.Fatal("paste overwrote outside source")
	}
	if err := Paste(dst, New(1, 1, 3), 0, 0); err == nil {
		t.Error("Paste accepted channel mismatch")
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := New(2, 1, 1)
	b := New(2, 1, 1)
	b.Pix[0] = 0.5
	d, err := MeanAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.25) > 1e-9 {
		t.Fatalf("MeanAbsDiff = %v, want 0.25", d)
	}
	if _, err := MeanAbsDiff(a, New(3, 1, 1)); err == nil {
		t.Error("MeanAbsDiff accepted shape mismatch")
	}
}

// TestPPMEncodeDecodeQuick drives the codec with random shapes.
func TestPPMEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randomImage(rng, 1+rng.Intn(20), 1+rng.Intn(20), 3)
		var buf bytes.Buffer
		if err := EncodePPM(&buf, im); err != nil {
			return false
		}
		back, err := DecodePPM(&buf)
		if err != nil {
			return false
		}
		if back.W != im.W || back.H != im.H {
			return false
		}
		for i := range im.Pix {
			if math.Abs(im.Pix[i]-back.Pix[i]) > 1.0/255+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
