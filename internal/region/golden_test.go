package region

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"walrus/internal/colorspace"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/parallel"
)

// goldenImages renders a seeded set of dataset scenes, two per category,
// at the paper's shapes and at shapes whose sides are odd or not a
// multiple of the default step, so the last row and column of windows
// and the pixels no window covers are all exercised.
func goldenImages() []*imgio.Image {
	sizes := [][2]int{{128, 85}, {85, 128}, {96, 128}, {129, 85}, {131, 67}, {64, 64}, {100, 77}}
	rng := rand.New(rand.NewSource(33))
	var ims []*imgio.Image
	cats := dataset.Categories()
	for i := 0; i < 2*len(cats); i++ {
		sz := sizes[i%len(sizes)]
		ims = append(ims, dataset.Render(cats[i%len(cats)], rng, sz[0], sz[1]))
	}
	return ims
}

// regionDigest is the SHA-256 of every field of every region Extract
// returns for ims, in order, with floats hashed by their bits.
func regionDigest(t *testing.T, opts Options, ims []*imgio.Image) string {
	t.Helper()
	ext, err := NewExtractor(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(fs []float64) {
		put(uint64(len(fs)))
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	for _, im := range ims {
		regions, err := ext.Extract(im)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(regions)))
		for _, r := range regions {
			floats(r.Signature)
			floats(r.Min)
			floats(r.Max)
			floats(r.Fine)
			put(uint64(r.Windows))
			put(uint64(r.Bitmap.K))
			for _, w := range r.Bitmap.Words {
				put(w)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExtractGolden pins every region of a seeded image set, bit for bit,
// under the option sets that take different paths through the sliding-
// window DP: the paper's single 64-pixel window, several emitted levels,
// a finer second-tier signature, a colour space other than YCC, and a
// serial extraction. The digests were recorded before the DP stopped
// storing coefficients no later level reads and before colour conversion
// was fused into the DP's base level; both changes must keep them.
func TestExtractGolden(t *testing.T) {
	const defaultDigest = "a9f18097f7f445c048ef260fb8d9e16373a3c97447a8282b8f3ca4b2e1a72218"
	cases := []struct {
		name   string
		mutate func(*Options)
		digest string
	}{
		{"default", func(*Options) {}, defaultDigest},
		{"minwindow16", func(o *Options) { o.MinWindow = 16 }, "7e56d23e5bb98262571ce7306a93d3687f78d1a0e346074013966a4141d3ad14"},
		{"window8to32-fine4", func(o *Options) { o.MinWindow, o.MaxWindow, o.FineSignature = 8, 32, 4 }, "b7a22b05a43a368da2b515f500a9931f11bdfeae17ab07f6102ebfcf6a8c4e12"},
		{"hsv", func(o *Options) { o.Space = colorspace.HSV }, "50cba3818e563a38f69805d7780cb3059451675808e36734655055d40537e31c"},
		{"workers1", func(o *Options) { o.Workers = 1 }, defaultDigest},
	}
	ims := goldenImages()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			c.mutate(&opts)
			if got := regionDigest(t, opts, ims); got != c.digest {
				t.Errorf("region digest %s, want %s", got, c.digest)
			}
		})
	}
}

// TestExtractAllocations bounds the bytes one Extract of a paper-size
// 128×85 image allocates with the default options. Before the DP kept
// only the coefficients a later level reads and read the RGB planes
// directly instead of a converted image, this measurement read 668 115
// bytes per image (667–669 KB with and without -race, at one and two
// CPUs); the bound is a quarter of that.
func TestExtractAllocations(t *testing.T) {
	const parentBytes = 668115
	ext, err := NewExtractor(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	cats := dataset.Categories()
	ims := make([]*imgio.Image, 24)
	for i := range ims {
		ims[i] = dataset.Render(cats[i%len(cats)], rng, 128, 85)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, im := range ims {
		if _, err := ext.Extract(im); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perImage := (after.TotalAlloc - before.TotalAlloc) / uint64(len(ims))
	t.Logf("%d bytes per Extract", perImage)
	if perImage > parentBytes/4 {
		t.Errorf("Extract allocates %d bytes per 128x85 image, want at most %d", perImage, parentBytes/4)
	}
}

// TestExtractRunsOnCaller: one paper-size Extract sends no task through
// the worker pool. The sliding-window DP once fanned each level's rows
// across it, and waking a second core cost more than those rows;
// parallelism pays across images, where batch ingest puts it.
func TestExtractRunsOnCaller(t *testing.T) {
	ext, err := NewExtractor(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	im := goldenImages()[0]
	reg := obs.NewRegistry()
	parallel.SetMetrics(reg)
	defer parallel.SetMetrics(nil)
	tasks := reg.Counter("walrus_pool_tasks_total", "")
	before := tasks.Value()
	if _, err := ext.Extract(im); err != nil {
		t.Fatal(err)
	}
	if n := tasks.Value() - before; n != 0 {
		t.Errorf("a %dx%d Extract ran %d pool tasks, want 0", im.W, im.H, n)
	}
}
