package region

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"walrus/internal/colorspace"
	"walrus/internal/imgio"
)

// bit reports the bit of b at grid cell (bx, by).
func bit(b Bitmap, bx, by int) bool {
	i := by*b.K + bx
	return b.Words[i/64]&(1<<(i%64)) != 0
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(16)
	if b.Count() != 0 || b.Fraction() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0, 0)
	b.Set(15, 15)
	if !bit(b, 0, 0) || !bit(b, 15, 15) || bit(b, 1, 1) {
		t.Fatal("Set/Get wrong")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d", b.Count())
	}
	if math.Abs(b.Fraction()-2.0/256) > 1e-12 {
		t.Fatalf("Fraction = %v", b.Fraction())
	}
}

func TestBitmapUnion(t *testing.T) {
	a := NewBitmap(8)
	b := NewBitmap(8)
	a.Set(0, 0)
	b.Set(0, 0)
	b.Set(7, 7)
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 2 {
		t.Fatalf("union Count = %d", a.Count())
	}
	c := NewBitmap(4)
	if err := a.UnionWith(c); err == nil {
		t.Fatal("UnionWith accepted mismatched grids")
	}
}

func TestBitmapCloneIndependent(t *testing.T) {
	a := NewBitmap(8)
	a.Set(3, 3)
	b := a.Clone()
	b.Set(4, 4)
	if bit(a, 4, 4) {
		t.Fatal("Clone shares words")
	}
}

func TestCoverWindowExact(t *testing.T) {
	// 64x64 image, 16x16 grid: each cell is 4x4 pixels. A window at
	// (8,8)-(24,24) covers cells 2..5 in both axes.
	b := NewBitmap(16)
	b.CoverWindow(8, 8, 16, 16, 64, 64)
	for by := 0; by < 16; by++ {
		for bx := 0; bx < 16; bx++ {
			want := bx >= 2 && bx < 6 && by >= 2 && by < 6
			if bit(b, bx, by) != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", bx, by, bit(b, bx, by), want)
			}
		}
	}
}

func TestCoverWindowPartialCells(t *testing.T) {
	// A window that only grazes a cell still sets it.
	b := NewBitmap(4)
	b.CoverWindow(0, 0, 1, 1, 64, 64)
	if !bit(b, 0, 0) || b.Count() != 1 {
		t.Fatalf("graze: Count=%d", b.Count())
	}
	// Full-image window sets everything.
	f := NewBitmap(4)
	f.CoverWindow(0, 0, 64, 64, 64, 64)
	if f.Count() != 16 {
		t.Fatalf("full cover Count = %d", f.Count())
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{MaxWindow: 3, MinWindow: 2, Signature: 2, Step: 1, BitmapGrid: 16},
		{MaxWindow: 8, MinWindow: 3, Signature: 2, Step: 1, BitmapGrid: 16},
		{MaxWindow: 8, MinWindow: 16, Signature: 2, Step: 1, BitmapGrid: 16},
		{MaxWindow: 8, MinWindow: 4, Signature: 2, Step: 1, BitmapGrid: 0},
		{MaxWindow: 8, MinWindow: 4, Signature: 2, Step: 1, BitmapGrid: 16, ClusterEps: -1},
		{MaxWindow: 8, MinWindow: 4, Signature: 2, Step: 1, BitmapGrid: 16, MaxRegions: -2},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
	if DefaultOptions().Dim() != 12 {
		t.Fatalf("default Dim = %d, want 12 (the paper's 12-dimensional points)", DefaultOptions().Dim())
	}
}

// twoToneImage builds a 128x128 image that is green except for a red
// square at (x0,y0) with the given side.
func twoToneImage(x0, y0, side int) *imgio.Image {
	im := imgio.New(128, 128, 3)
	im.FillRGB(0.1, 0.7, 0.1)
	for y := y0; y < y0+side && y < im.H; y++ {
		for x := x0; x < x0+side && x < im.W; x++ {
			im.SetRGB(x, y, 0.9, 0.1, 0.1)
		}
	}
	return im
}

func testOptions() Options {
	o := DefaultOptions()
	o.MaxWindow = 32
	o.MinWindow = 32
	o.Step = 8
	return o
}

func TestExtractTwoToneImage(t *testing.T) {
	e, err := NewExtractor(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	regions, err := e.Extract(twoToneImage(0, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	// A half-red half-green image must produce at least two regions (one
	// per dominant color; boundary windows may add more).
	if len(regions) < 2 {
		t.Fatalf("got %d regions, want >= 2", len(regions))
	}
	totalWindows := 0
	union := NewBitmap(16)
	for _, r := range regions {
		if len(r.Signature) != 12 {
			t.Fatalf("signature dim %d, want 12", len(r.Signature))
		}
		if r.Windows <= 0 {
			t.Fatal("region with no windows")
		}
		if r.Bitmap.Count() == 0 {
			t.Fatal("region with empty bitmap")
		}
		for i := range r.Signature {
			if r.Signature[i] < r.Min[i]-1e-9 || r.Signature[i] > r.Max[i]+1e-9 {
				t.Fatal("centroid outside signature bounding box")
			}
		}
		totalWindows += r.Windows
		if err := union.UnionWith(r.Bitmap); err != nil {
			t.Fatal(err)
		}
	}
	// All windows accounted for: (128-32)/8+1 = 13 positions per axis.
	if want := 13 * 13; totalWindows != want {
		t.Fatalf("total windows %d, want %d", totalWindows, want)
	}
	// Windows cover the whole image, so the union bitmap must be full.
	if union.Count() != 256 {
		t.Fatalf("union covers %d cells, want 256", union.Count())
	}
}

// TestExtractHomogeneousImage: a flat image collapses to a single region
// covering everything.
func TestExtractHomogeneousImage(t *testing.T) {
	e, err := NewExtractor(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	im := imgio.New(128, 128, 3)
	im.FillRGB(0.4, 0.5, 0.6)
	regions, err := e.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("flat image produced %d regions, want 1", len(regions))
	}
	if regions[0].Bitmap.Count() != 256 {
		t.Fatalf("flat region covers %d cells", regions[0].Bitmap.Count())
	}
}

// TestExtractTranslationInvariance: the same object at two different
// locations yields regions with (nearly) identical signatures.
func TestExtractTranslationInvariance(t *testing.T) {
	e, err := NewExtractor(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Extract(twoToneImage(0, 0, 48))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Extract(twoToneImage(64, 64, 48))
	if err != nil {
		t.Fatal(err)
	}
	// The two dominant regions of a (the green background and the red
	// square) must have near-identical counterparts in b; clusters of
	// mixed boundary windows legitimately differ between the placements.
	sort.Slice(a, func(i, j int) bool { return a[i].Windows > a[j].Windows })
	for _, ra := range a[:2] {
		best := math.Inf(1)
		for _, rb := range b {
			d := 0.0
			for i := range ra.Signature {
				diff := ra.Signature[i] - rb.Signature[i]
				d += diff * diff
			}
			if d = math.Sqrt(d); d < best {
				best = d
			}
		}
		if best > 0.1 {
			t.Fatalf("dominant region has no translated counterpart (nearest %v)", best)
		}
	}
}

// TestExtractClusterEpsMonotone: more permissive εc produces at most as
// many regions (Section 6.6's observation).
func TestExtractClusterEpsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	im := imgio.New(128, 128, 3)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	prev := -1
	for _, eps := range []float64{0.01, 0.05, 0.2, 0.8} {
		o := testOptions()
		o.ClusterEps = eps
		e, err := NewExtractor(o)
		if err != nil {
			t.Fatal(err)
		}
		regions, err := e.Extract(im)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(regions) > prev+prev/4+1 {
			t.Fatalf("eps %v produced %d regions, smaller eps produced %d", eps, len(regions), prev)
		}
		prev = len(regions)
	}
}

func TestExtractErrors(t *testing.T) {
	e, err := NewExtractor(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Extract(imgio.New(16, 16, 3)); err == nil {
		t.Error("Extract accepted image smaller than MinWindow")
	}
	if _, err := e.Extract(imgio.New(128, 128, 1)); err == nil {
		t.Error("Extract accepted grayscale image")
	}
	if _, err := NewExtractor(Options{MaxWindow: 3}); err == nil {
		t.Error("NewExtractor accepted invalid options")
	}
}

// TestExtractRejectsNonFiniteUncoveredPixel: a NaN or infinite sample is
// an error even in a pixel no window reads. In a 129-pixel-wide image the
// last column lies outside every window, including the 2×2 windows of the
// DP's base level, which convert the pixels they read as they go, and in
// an 85-pixel-high one the last row does. Every case — NaN, +Inf and -Inf
// at a read pixel, in the last row and in the last column — is refused
// with colorspace.CheckRGB's error, which names the first bad pixel.
func TestExtractRejectsNonFiniteUncoveredPixel(t *testing.T) {
	e, err := NewExtractor(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for ch := 0; ch < 3; ch++ {
			im := imgio.New(129, 85, 3)
			im.FillRGB(0.2, 0.5, 0.7)
			im.Set(ch, 128, 40, v)
			if _, err := e.Extract(im); err == nil {
				t.Errorf("Extract accepted %v in channel %d of the uncovered last column", v, ch)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, size := range [][2]int{{129, 85}, {128, 85}, {85, 129}} {
		w, h := size[0], size[1]
		clean := imgio.New(w, h, 3)
		for i := range clean.Pix {
			clean.Pix[i] = rng.Float64()
		}
		if _, err := e.Extract(clean); err != nil {
			t.Fatalf("%dx%d: a finite image is refused: %v", w, h, err)
		}
		for vi, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for pi, at := range [][2]int{{w / 3, h / 2}, {w / 2, h - 1}, {w - 1, h / 3}} {
				im := clean.Clone()
				im.Set((vi+pi)%3, at[0], at[1], v)
				want := colorspace.CheckRGB(im, colorspace.YCC)
				if _, err := e.Extract(im); err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("%dx%d, %v at (%d,%d): got error %v, want %v", w, h, v, at[0], at[1], err, want)
				}
			}
		}
	}
}

// TestExtractMultiScale: enabling multiple window sizes yields more
// windows and still accounts for all of them.
func TestExtractMultiScale(t *testing.T) {
	o := testOptions()
	o.MinWindow = 16
	e, err := NewExtractor(o)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := e.Extract(twoToneImage(16, 16, 64))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range regions {
		total += r.Windows
	}
	// 16-size windows: (128-16)/8+1 = 15 per axis; 32-size: 13 per axis.
	if want := 15*15 + 13*13; total != want {
		t.Fatalf("total windows %d, want %d", total, want)
	}
}

// TestExtractMaxRegionsCap: the cap rebuilds clustering until it fits.
func TestExtractMaxRegionsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	im := imgio.New(128, 128, 3)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	o := testOptions()
	o.ClusterEps = 0.001
	o.MaxRegions = 5
	e, err := NewExtractor(o)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := e.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) > 5 {
		t.Fatalf("cap violated: %d regions", len(regions))
	}
}

// TestExtractRGBvsYCCRegionCounts mirrors Section 6.6: RGB typically
// produces more clusters than YCC on natural-ish content.
func TestExtractRGBvsYCCRegionCounts(t *testing.T) {
	// Build a scene with several colored patches plus texture.
	rng := rand.New(rand.NewSource(83))
	im := imgio.New(128, 128, 3)
	for by := 0; by < 4; by++ {
		for bx := 0; bx < 4; bx++ {
			r, g, b := rng.Float64(), rng.Float64(), rng.Float64()
			for y := by * 32; y < (by+1)*32; y++ {
				for x := bx * 32; x < (bx+1)*32; x++ {
					im.SetRGB(x, y, r, g, b)
				}
			}
		}
	}
	count := func(space colorspace.Space) int {
		o := testOptions()
		o.Space = space
		e, err := NewExtractor(o)
		if err != nil {
			t.Fatal(err)
		}
		regions, err := e.Extract(im)
		if err != nil {
			t.Fatal(err)
		}
		return len(regions)
	}
	rgb, ycc := count(colorspace.RGB), count(colorspace.YCC)
	if rgb < ycc {
		t.Logf("note: RGB %d < YCC %d on this scene (paper reports RGB ≈ 4x YCC on photos)", rgb, ycc)
	}
	if rgb == 0 || ycc == 0 {
		t.Fatal("no regions extracted")
	}
}

// TestExtractRefineIterations: refinement keeps all windows assigned and
// retrieval-compatible region structure.
func TestExtractRefineIterations(t *testing.T) {
	o := testOptions()
	o.RefineIterations = 5
	e, err := NewExtractor(o)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := e.Extract(twoToneImage(16, 16, 64))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range regions {
		if r.Windows <= 0 || r.Bitmap.Count() == 0 {
			t.Fatalf("degenerate region after refinement: %+v", r)
		}
		total += r.Windows
	}
	if want := 13 * 13; total != want {
		t.Fatalf("refinement lost windows: %d of %d", total, want)
	}
	o.RefineIterations = -1
	if _, err := NewExtractor(o); err == nil {
		t.Fatal("accepted negative RefineIterations")
	}
}
