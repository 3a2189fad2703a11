package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"walrus/internal/colorspace"
	"walrus/internal/imgio"
)

func randomPlane(rng *rand.Rand, w, h int) []float64 {
	p := make([]float64, w*h)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func TestSlidingParamsValidate(t *testing.T) {
	bad := []SlidingParams{
		{MaxWindow: 3, Signature: 2, Step: 1},
		{MaxWindow: 0, Signature: 2, Step: 1},
		{MaxWindow: 8, Signature: 3, Step: 1},
		{MaxWindow: 8, Signature: 16, Step: 1},
		{MaxWindow: 8, Signature: 2, Step: 3},
		{MaxWindow: 8, Signature: 2, Step: 0},
		{MaxWindow: 8, MinWindow: 16, Signature: 2, Step: 1},
		{MaxWindow: 8, MinWindow: 3, Signature: 2, Step: 1},
		{MaxWindow: 8, MinWindow: 1, Signature: 2, Step: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	good := SlidingParams{MaxWindow: 64, Signature: 2, Step: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
}

// TestDPSignaturesMatchNaive is the central correctness property of the
// dynamic programming algorithm: for every window size, position, signature
// size and step, the DP signatures must equal the naively computed ones.
func TestDPSignaturesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		w, h   int
		params SlidingParams
	}{
		{32, 32, SlidingParams{MaxWindow: 16, Signature: 2, Step: 1}},
		{32, 32, SlidingParams{MaxWindow: 32, Signature: 4, Step: 1}},
		{40, 24, SlidingParams{MaxWindow: 16, Signature: 4, Step: 2}},
		{33, 47, SlidingParams{MaxWindow: 8, Signature: 8, Step: 1}},
		{64, 48, SlidingParams{MaxWindow: 64, Signature: 2, Step: 8}},
		{24, 24, SlidingParams{MaxWindow: 16, Signature: 1, Step: 4}},
		{16, 16, SlidingParams{MaxWindow: 16, Signature: 16, Step: 16}},
	}
	for _, tc := range cases {
		plane := randomPlane(rng, tc.w, tc.h)
		dp, err := ComputeSlidingWindows(plane, tc.w, tc.h, tc.params)
		if err != nil {
			t.Fatalf("%+v: DP: %v", tc.params, err)
		}
		naive, err := NaiveSlidingWindows(plane, tc.w, tc.h, tc.params)
		if err != nil {
			t.Fatalf("%+v: naive: %v", tc.params, err)
		}
		for _, win := range dp.Sizes() {
			gd, gn := dp.Level(win), naive.Level(win)
			if gn == nil {
				t.Fatalf("%+v: naive missing level %d", tc.params, win)
			}
			if gd.NX != gn.NX || gd.NY != gn.NY || gd.Sig != gn.Sig || gd.Step != gn.Step {
				t.Fatalf("%+v win %d: grid shape mismatch: %+v vs %+v", tc.params, win, gd, gn)
			}
			for iy := 0; iy < gd.NY; iy++ {
				for ix := 0; ix < gd.NX; ix++ {
					if !slicesAlmostEqual(gd.SigAt(ix, iy), gn.SigAt(ix, iy)) {
						t.Fatalf("%+v win %d pos (%d,%d): DP %v vs naive %v",
							tc.params, win, ix, iy, gd.SigAt(ix, iy), gn.SigAt(ix, iy))
					}
				}
			}
		}
	}
}

// TestDPSignaturesMatchNaiveQuick drives the same property through
// testing/quick with randomized dimensions and parameters.
func TestDPSignaturesMatchNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 16 + rng.Intn(33)
		h := 16 + rng.Intn(33)
		params := SlidingParams{
			MaxWindow: 1 << (1 + rng.Intn(4)),
			Signature: 1 << rng.Intn(3),
			Step:      1 << rng.Intn(4),
		}
		if params.Signature > params.MaxWindow {
			params.Signature = params.MaxWindow
		}
		plane := randomPlane(rng, w, h)
		dp, err := ComputeSlidingWindows(plane, w, h, params)
		if err != nil {
			return false
		}
		naive, err := NaiveSlidingWindows(plane, w, h, params)
		if err != nil {
			return false
		}
		for _, win := range dp.Sizes() {
			gd, gn := dp.Level(win), naive.Level(win)
			for i := range gd.Data {
				if !almostEqual(gd.Data[i], gn.Data[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowSignatureMatchesGrid: the single-window helper agrees with the
// sliding computation.
func TestWindowSignatureMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const w, h = 48, 40
	plane := randomPlane(rng, w, h)
	params := SlidingParams{MaxWindow: 16, Signature: 4, Step: 4}
	pyr, err := ComputeSlidingWindows(plane, w, h, params)
	if err != nil {
		t.Fatal(err)
	}
	g := pyr.Level(16)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			x, y := g.PosOf(ix, iy)
			want, err := WindowSignature(plane, w, h, x, y, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !slicesAlmostEqual(g.SigAt(ix, iy), want) {
				t.Fatalf("window at (%d,%d): %v vs %v", x, y, g.SigAt(ix, iy), want)
			}
		}
	}
}

// TestSlidingSignatureScaleInvariance: the 2×2 signature of a window over a
// uniform region equals that of a 2× larger window over the 2× upscaled
// region — the property that lets WALRUS match scaled objects.
func TestSlidingSignatureScaleInvariance(t *testing.T) {
	// Build a 32×32 image and its 64×64 pixel-doubled version.
	rng := rand.New(rand.NewSource(13))
	const small = 32
	sp := randomPlane(rng, small, small)
	big := make([]float64, small*2*small*2)
	for y := 0; y < small*2; y++ {
		for x := 0; x < small*2; x++ {
			big[y*small*2+x] = sp[(y/2)*small+x/2]
		}
	}
	sigSmall, err := WindowSignature(sp, small, small, 0, 0, small, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigBig, err := WindowSignature(big, small*2, small*2, 0, 0, small*2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slicesAlmostEqual(sigSmall, sigBig) {
		t.Fatalf("scale invariance violated: %v vs %v", sigSmall, sigBig)
	}
}

// TestSlidingTranslationInvariance: a window over the same content at a
// different location yields the identical signature.
func TestSlidingTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const w, h, win = 64, 64, 16
	plane := make([]float64, w*h)
	patch := randomPlane(rng, win, win)
	place := func(ox, oy int) {
		for y := 0; y < win; y++ {
			copy(plane[(oy+y)*w+ox:(oy+y)*w+ox+win], patch[y*win:(y+1)*win])
		}
	}
	place(0, 0)
	place(40, 32)
	a, err := WindowSignature(plane, w, h, 0, 0, win, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WindowSignature(plane, w, h, 40, 32, win, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slicesAlmostEqual(a, b) {
		t.Fatalf("translation invariance violated: %v vs %v", a, b)
	}
}

func TestComputeSlidingWindowsErrors(t *testing.T) {
	plane := make([]float64, 16)
	if _, err := ComputeSlidingWindows(plane, 4, 4, SlidingParams{MaxWindow: 3, Signature: 2, Step: 1}); err == nil {
		t.Error("accepted invalid params")
	}
	if _, err := ComputeSlidingWindows(plane, 5, 4, SlidingParams{MaxWindow: 4, Signature: 2, Step: 1}); err == nil {
		t.Error("accepted mismatched plane length")
	}
	if _, err := ComputeSlidingWindows(make([]float64, 1), 1, 1, SlidingParams{MaxWindow: 2, Signature: 2, Step: 1}); err == nil {
		t.Error("accepted image smaller than the smallest window")
	}
}

func TestWindowSignatureErrors(t *testing.T) {
	plane := make([]float64, 64)
	if _, err := WindowSignature(plane, 8, 8, 7, 0, 4, 2); err == nil {
		t.Error("accepted out-of-bounds window")
	}
	if _, err := WindowSignature(plane, 8, 8, 0, 0, 3, 2); err == nil {
		t.Error("accepted non-power-of-two window")
	}
}

// TestPyramidSizes: levels stop at the image size.
func TestPyramidSizes(t *testing.T) {
	plane := make([]float64, 24*24)
	pyr, err := ComputeSlidingWindows(plane, 24, 24, SlidingParams{MaxWindow: 64, Signature: 2, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 8, 16}
	got := pyr.Sizes()
	if len(got) != len(want) {
		t.Fatalf("Sizes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes() = %v, want %v", got, want)
		}
	}
	if pyr.Level(32) != nil {
		t.Error("Level(32) should be nil for a 24x24 image")
	}
}

// sameBits reports whether two grids have the same shape and bit-identical
// coefficients.
func sameBits(a, b *Grid) bool {
	if a.Window != b.Window || a.Sig != b.Sig || a.Step != b.Step || a.NX != b.NX || a.NY != b.NY || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestMinWindowKeepsReturnedLevels: with MinWindow set, the DP returns
// exactly the levels from MinWindow up, each bit-identical to the same
// level computed with every level stored in full, although the levels
// below MinWindow keep only the corner the next level reads.
func TestMinWindowKeepsReturnedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := []struct {
		w, h   int
		params SlidingParams
	}{
		{128, 85, SlidingParams{MaxWindow: 64, MinWindow: 64, Signature: 2, Step: 8}},
		{129, 85, SlidingParams{MaxWindow: 64, MinWindow: 16, Signature: 2, Step: 8}},
		{100, 77, SlidingParams{MaxWindow: 32, MinWindow: 8, Signature: 4, Step: 8}},
		{40, 33, SlidingParams{MaxWindow: 32, MinWindow: 32, Signature: 8, Step: 1}},
		{48, 48, SlidingParams{MaxWindow: 16, MinWindow: 2, Signature: 2, Step: 2}},
		{37, 45, SlidingParams{MaxWindow: 32, MinWindow: 16, Signature: 1, Step: 4}},
	}
	for _, tc := range cases {
		plane := randomPlane(rng, tc.w, tc.h)
		full := tc.params
		full.MinWindow = 0
		want, err := ComputeSlidingWindows(plane, tc.w, tc.h, full)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			p := tc.params
			p.Workers = workers
			got, err := ComputeSlidingWindows(plane, tc.w, tc.h, p)
			if err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			var wantSizes []int
			for _, win := range want.Sizes() {
				if win >= p.MinWindow {
					wantSizes = append(wantSizes, win)
				}
			}
			sizes := got.Sizes()
			if len(sizes) != len(wantSizes) {
				t.Fatalf("%+v: sizes %v, want %v", p, sizes, wantSizes)
			}
			for i, win := range wantSizes {
				if sizes[i] != win || !sameBits(got.Level(win), want.Level(win)) {
					t.Fatalf("%+v: level %d differs from the full DP", p, win)
				}
			}
			if p.MinWindow > 2 && got.Level(p.MinWindow/2) != nil {
				t.Fatalf("%+v: level %d below MinWindow returned", p, p.MinWindow/2)
			}
		}
	}
	if _, err := ComputeSlidingWindows(make([]float64, 20*40), 20, 40, SlidingParams{MaxWindow: 32, MinWindow: 32, Signature: 2, Step: 1}); err == nil {
		t.Error("accepted an image smaller than MinWindow")
	}
}

// TestRGBPyramidsMatchConvertedPlanes: the fused DP, which converts the
// pixels its base level reads, returns for every colour space exactly
// the pyramids the DP computes on the planes of colorspace.FromRGB.
func TestRGBPyramidsMatchConvertedPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	im := imgio.New(67, 45, 3)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	for _, params := range []SlidingParams{
		{MaxWindow: 32, Signature: 4, Step: 1},
		{MaxWindow: 32, MinWindow: 16, Signature: 2, Step: 8},
	} {
		for _, sp := range []colorspace.Space{colorspace.RGB, colorspace.Gray, colorspace.YCC, colorspace.YIQ, colorspace.YUV, colorspace.HSV, colorspace.XYZ} {
			conv, err := colorspace.FromRGB(im, sp)
			if err != nil {
				t.Fatal(err)
			}
			pyrs, err := ComputeSlidingWindowsRGB(im, sp, params)
			if err != nil {
				t.Fatal(err)
			}
			if len(pyrs) != sp.Channels() {
				t.Fatalf("%v: %d pyramids, want %d", sp, len(pyrs), sp.Channels())
			}
			for c, pyr := range pyrs {
				want, err := ComputeSlidingWindows(conv.Plane(c), im.W, im.H, params)
				if err != nil {
					t.Fatal(err)
				}
				for _, win := range want.Sizes() {
					if !sameBits(pyr.Level(win), want.Level(win)) {
						t.Fatalf("%v %+v channel %d: level %d differs from the converted plane's", sp, params, c, win)
					}
				}
			}
		}
	}
	bad := im.Clone()
	bad.Pix[len(bad.Pix)-1] = math.NaN()
	if _, err := ComputeSlidingWindowsRGB(bad, colorspace.YCC, SlidingParams{MaxWindow: 32, Signature: 2, Step: 8}); err == nil {
		t.Error("accepted a NaN sample")
	}
	if _, err := ComputeSlidingWindowsRGB(imgio.New(67, 45, 1), colorspace.YCC, SlidingParams{MaxWindow: 32, Signature: 2, Step: 8}); err == nil {
		t.Error("accepted a 1-channel image")
	}
}

func TestNaiveWindowSignaturesMatchesSliding(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const w, h = 40, 32
	plane := randomPlane(rng, w, h)
	params := SlidingParams{MaxWindow: 16, Signature: 4, Step: 2}
	pyr, err := ComputeSlidingWindows(plane, w, h, params)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NaiveWindowSignatures(plane, w, h, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	grid := pyr.Level(16)
	if single.NX != grid.NX || single.NY != grid.NY || single.Sig != grid.Sig {
		t.Fatalf("grid shapes differ: %+v vs %+v", single, grid)
	}
	for i := range grid.Data {
		if !almostEqual(grid.Data[i], single.Data[i]) {
			t.Fatalf("value %d differs: %v vs %v", i, grid.Data[i], single.Data[i])
		}
	}
}

func TestNaiveWindowSignaturesErrors(t *testing.T) {
	plane := make([]float64, 64)
	if _, err := NaiveWindowSignatures(plane, 8, 8, 3, 2, 1); err == nil {
		t.Error("accepted non-power-of-two window")
	}
	if _, err := NaiveWindowSignatures(plane, 8, 8, 16, 2, 1); err == nil {
		t.Error("accepted window larger than image")
	}
	if _, err := NaiveWindowSignatures(plane, 8, 8, 4, 2, 3); err == nil {
		t.Error("accepted non-power-of-two step")
	}
	if _, err := NaiveWindowSignatures(plane, 9, 8, 4, 2, 1); err == nil {
		t.Error("accepted mismatched plane length")
	}
}
