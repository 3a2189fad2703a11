package dataset

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"walrus/internal/imgio"
)

// Category labels a scene type; it is the ground truth used to score
// retrieval quality.
type Category string

// The scene categories. Flowers, Bricks, Sunset, Ocean and LawnDog mirror
// image classes that appear in the paper's Figures 7 and 8 (red flowers on
// green leaves, an orange brick wall, a sunset over the ocean, a dog on a
// lawn); the rest add variety comparable to the misc dataset.
const (
	Flowers  Category = "flowers"
	Sunset   Category = "sunset"
	Bricks   Category = "bricks"
	Ocean    Category = "ocean"
	LawnDog  Category = "lawndog"
	Forest   Category = "forest"
	City     Category = "city"
	Snow     Category = "snow"
	Windsurf Category = "windsurf"
	Portrait Category = "portrait"
	Beach    Category = "beach"
	Mountain Category = "mountain"
)

// Categories lists every category in a fixed order.
func Categories() []Category {
	return []Category{Flowers, Sunset, Bricks, Ocean, LawnDog, Forest, City, Snow, Windsurf, Portrait, Beach, Mountain}
}

// Item is one generated image with its ground-truth label.
type Item struct {
	ID       string
	Category Category
	Image    *imgio.Image
}

// Dataset is a generated image collection.
type Dataset struct {
	Items []Item
}

// Options configures generation.
type Options struct {
	// Seed makes generation deterministic.
	Seed int64
	// PerCategory is the number of images generated per category.
	PerCategory int
	// Sizes are the (width, height) shapes images are drawn in, cycled per
	// image. Default mirrors the misc dataset's 128×85 / 85×128 / 96×128
	// shapes, padded up to fit a 64-pixel window in both axes.
	Sizes [][2]int
	// Categories restricts generation to these categories (nil = all).
	Categories []Category
}

// DefaultOptions generates 100 images per category at sizes that keep the
// paper's aspect ratios while fitting the default 64-pixel window.
func DefaultOptions() Options {
	return Options{
		Seed:        1999, // the paper's year; any fixed seed works
		PerCategory: 100,
		Sizes:       [][2]int{{128, 85}, {85, 128}, {96, 128}},
	}
}

// Generate builds a dataset.
func Generate(opts Options) (*Dataset, error) {
	if opts.PerCategory < 1 {
		return nil, fmt.Errorf("dataset: PerCategory %d < 1", opts.PerCategory)
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = DefaultOptions().Sizes
	}
	for _, s := range opts.Sizes {
		if s[0] < 16 || s[1] < 16 {
			return nil, fmt.Errorf("dataset: size %dx%d too small", s[0], s[1])
		}
	}
	cats := opts.Categories
	if len(cats) == 0 {
		cats = Categories()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var items []Item
	for _, cat := range cats {
		for i := 0; i < opts.PerCategory; i++ {
			size := opts.Sizes[(i+len(items))%len(opts.Sizes)]
			im := Render(cat, rng, size[0], size[1])
			items = append(items, Item{
				ID:       fmt.Sprintf("%s-%04d", cat, i),
				Category: cat,
				Image:    im,
			})
		}
	}
	return &Dataset{Items: items}, nil
}

// ByCategory returns the items with the given label.
func (d *Dataset) ByCategory(c Category) []Item {
	var out []Item
	for _, it := range d.Items {
		if it.Category == c {
			out = append(out, it)
		}
	}
	return out
}

// CategoryOf maps a generated id back to its category label ("flowers-0042"
// → flowers). It works on ids produced by Generate.
func CategoryOf(id string) Category {
	if i := strings.LastIndex(id, "-"); i > 0 {
		return Category(id[:i])
	}
	return Category(id)
}

// Render draws one image of the given category. The rng drives all
// randomized placement, scale and color jitter.
func Render(cat Category, rng *rand.Rand, w, h int) *imgio.Image {
	im := imgio.New(w, h, 3)
	fw, fh := float64(w), float64(h)
	switch cat {
	case Flowers:
		// Backgrounds vary widely between flower photos (sunlit foliage,
		// shade, dark undergrowth), as they do in the misc dataset: this
		// intra-category diversity is what defeats whole-image signatures
		// while region signatures still match the flowers themselves.
		backgrounds := []rgb{
			{0.16, 0.5, 0.18},  // sunlit foliage
			{0.08, 0.3, 0.1},   // deep shade
			{0.25, 0.42, 0.15}, // olive brush
			{0.05, 0.15, 0.08}, // near-dark undergrowth
		}
		fill(im, backgrounds[rng.Intn(len(backgrounds))].jitter(rng, 0.06))
		texture(im, rng, 0.05)
		// Dark leaf blobs.
		for i := 0; i < rng.Intn(8); i++ {
			ellipse(im, rng.Float64()*fw, rng.Float64()*fh,
				8+rng.Float64()*14, 5+rng.Float64()*8, rgb{0.1, 0.38, 0.12}.jitter(rng, 0.04))
		}
		// Flowers: randomized count, position and size; red or pink.
		petal := rgb{0.85, 0.1, 0.12}
		if rng.Intn(3) == 0 {
			petal = rgb{0.92, 0.45, 0.6} // pink
		}
		for i := 0; i < 2+rng.Intn(5); i++ {
			size := 10 + rng.Float64()*16
			flower(im, rng, size+rng.Float64()*(fw-2*size), size+rng.Float64()*(fh-2*size), size, petal)
		}
	case Sunset:
		horizon := int(fh * (0.45 + rng.Float64()*0.2))
		vGradient(im, 0, horizon, rgb{0.95, 0.55, 0.15}.jitter(rng, 0.05), rgb{0.75, 0.2, 0.25}.jitter(rng, 0.05))
		vGradient(im, horizon, h, rgb{0.35, 0.12, 0.2}, rgb{0.12, 0.06, 0.15})
		// Sun disk near the horizon, position and size vary.
		disk(im, fw*(0.25+rng.Float64()*0.5), float64(horizon)-rng.Float64()*fh*0.1,
			6+rng.Float64()*10, rgb{1, 0.85, 0.4})
		texture(im, rng, 0.02)
	case Bricks:
		mortar := rgb{0.75, 0.7, 0.62}
		fill(im, mortar)
		bh := 8 + rng.Intn(6)
		bw := bh * 2
		base := rgb{0.7, 0.32, 0.18}
		if rng.Intn(3) == 0 {
			base = rgb{0.45, 0.25, 0.2} // dark brown wall
		}
		for row, y := 0, 0; y < h; row, y = row+1, y+bh+2 {
			off := 0
			if row%2 == 1 {
				off = -bw / 2
			}
			for x := off; x < w; x += bw + 2 {
				rect(im, x, y, x+bw, y+bh, base.jitter(rng, 0.07))
			}
		}
		texture(im, rng, 0.03)
	case Ocean:
		vGradient(im, 0, h, rgb{0.1, 0.3, 0.6}.jitter(rng, 0.05), rgb{0.05, 0.15, 0.4})
		// Wave streaks.
		for i := 0; i < 12+rng.Intn(12); i++ {
			y := rng.Intn(h)
			x0 := rng.Intn(w)
			rect(im, x0, y, x0+10+rng.Intn(30), y+1, rgb{0.5, 0.7, 0.9})
		}
		texture(im, rng, 0.03)
	case LawnDog:
		// A mowed lawn: yellower green than flower foliage, with light
		// horizontal mowing stripes.
		fill(im, rgb{0.45, 0.62, 0.15}.jitter(rng, 0.04))
		stripe := 8 + rng.Intn(6)
		for y := 0; y < h; y += 2 * stripe {
			rect(im, 0, y, w, y+stripe, rgb{0.52, 0.7, 0.2}.jitter(rng, 0.03))
		}
		texture(im, rng, 0.05)
		// Dog: tan body ellipse plus head disk, varied placement/size.
		scale := 0.6 + rng.Float64()*0.8
		cx := fw * (0.25 + rng.Float64()*0.5)
		cy := fh * (0.4 + rng.Float64()*0.3)
		body := rgb{0.8, 0.65, 0.35}.jitter(rng, 0.05)
		ellipse(im, cx, cy, 18*scale, 10*scale, body)
		disk(im, cx+20*scale, cy-8*scale, 7*scale, body.jitter(rng, 0.05))
	case Forest:
		fill(im, rgb{0.1, 0.3, 0.12}.jitter(rng, 0.07))
		texture(im, rng, 0.06)
		for x := rng.Intn(10); x < w; x += 14 + rng.Intn(14) {
			tw := 3 + rng.Intn(5)
			rect(im, x, 0, x+tw, h, rgb{0.3, 0.2, 0.1}.jitter(rng, 0.05))
		}
	case City:
		vGradient(im, 0, h, rgb{0.55, 0.7, 0.9}.jitter(rng, 0.06), rgb{0.7, 0.8, 0.95}.jitter(rng, 0.04))
		for x := 0; x < w; x += 10 + rng.Intn(16) {
			bw := 10 + rng.Intn(18)
			bh := int(fh * (0.3 + rng.Float64()*0.55))
			shade := 0.25 + rng.Float64()*0.3
			rect(im, x, h-bh, x+bw, h, rgb{shade, shade, shade + 0.05})
		}
		texture(im, rng, 0.02)
	case Snow:
		fill(im, rgb{0.88, 0.9, 0.94}.jitter(rng, 0.05))
		texture(im, rng, 0.03)
		for i := 0; i < 2+rng.Intn(4); i++ {
			shade := 0.35 + rng.Float64()*0.2
			ellipse(im, rng.Float64()*fw, fh*(0.5+rng.Float64()*0.4),
				8+rng.Float64()*18, 5+rng.Float64()*10, rgb{shade, shade, shade})
		}
	case Windsurf:
		vGradient(im, 0, h, rgb{0.15, 0.4, 0.7}.jitter(rng, 0.08), rgb{0.05, 0.2, 0.5}.jitter(rng, 0.05))
		texture(im, rng, 0.03)
		// Board and red sail, the cameo of Figure 8(m).
		scale := 0.6 + rng.Float64()*0.8
		cx := fw * (0.3 + rng.Float64()*0.4)
		cy := fh * (0.55 + rng.Float64()*0.2)
		rect(im, int(cx-16*scale), int(cy), int(cx+16*scale), int(cy+4*scale), rgb{0.9, 0.9, 0.85})
		triangle(im, cx, cy, cx, cy-40*scale, cx+24*scale, cy-8*scale, rgb{0.85, 0.1, 0.1})
	case Beach:
		// Sky over sea over sand, with a parasol dot or two.
		skyline := int(fh * (0.25 + rng.Float64()*0.15))
		waterline := int(fh * (0.55 + rng.Float64()*0.15))
		vGradient(im, 0, skyline, rgb{0.55, 0.75, 0.95}.jitter(rng, 0.05), rgb{0.65, 0.82, 0.96}.jitter(rng, 0.04))
		vGradient(im, skyline, waterline, rgb{0.1, 0.45, 0.7}.jitter(rng, 0.05), rgb{0.15, 0.55, 0.75})
		vGradient(im, waterline, h, rgb{0.9, 0.8, 0.55}.jitter(rng, 0.05), rgb{0.85, 0.72, 0.45})
		for i := 0; i < rng.Intn(3); i++ {
			scale := 0.6 + rng.Float64()*0.8
			cx := fw * rng.Float64()
			cy := float64(waterline) + (fh-float64(waterline))*rng.Float64()*0.8
			disk(im, cx, cy, 5*scale, rgb{0.9, 0.15, 0.15}.jitter(rng, 0.1))
			rect(im, int(cx), int(cy), int(cx)+1, int(cy+12*scale), rgb{0.4, 0.3, 0.2})
		}
		texture(im, rng, 0.03)
	case Mountain:
		// Sky, a jagged gray ridge with snow caps, dark foothills.
		vGradient(im, 0, h, rgb{0.6, 0.75, 0.92}.jitter(rng, 0.06), rgb{0.75, 0.85, 0.95})
		base := int(fh * (0.75 + rng.Float64()*0.15))
		for p := 0; p < 2+rng.Intn(3); p++ {
			peakX := fw * rng.Float64()
			peakY := fh * (0.15 + rng.Float64()*0.25)
			half := fw * (0.2 + rng.Float64()*0.25)
			shade := 0.35 + rng.Float64()*0.15
			triangle(im, peakX-half, float64(base), peakX, peakY, peakX+half, float64(base),
				rgb{shade, shade, shade + 0.03})
			// Snow cap.
			triangle(im, peakX-half*0.25, peakY+(float64(base)-peakY)*0.25, peakX, peakY,
				peakX+half*0.25, peakY+(float64(base)-peakY)*0.25, rgb{0.95, 0.95, 0.97})
		}
		rect(im, 0, base, w, h, rgb{0.2, 0.3, 0.15}.jitter(rng, 0.05))
		texture(im, rng, 0.04)
	case Portrait:
		bg := rgb{rng.Float64() * 0.6, rng.Float64() * 0.6, 0.3 + rng.Float64()*0.5}
		fill(im, bg)
		texture(im, rng, 0.03)
		scale := 0.7 + rng.Float64()*0.6
		cx := fw * (0.35 + rng.Float64()*0.3)
		cy := fh * (0.35 + rng.Float64()*0.2)
		skin := rgb{0.85, 0.65, 0.5}.jitter(rng, 0.06)
		ellipse(im, cx, cy, 14*scale, 18*scale, skin)                                            // face
		ellipse(im, cx, cy-14*scale, 15*scale, 8*scale, rgb{0.2, 0.15, 0.1})                     // hair
		rect(im, int(cx-18*scale), int(cy+20*scale), int(cx+18*scale), h, skin.jitter(rng, 0.2)) // torso
	default:
		fill(im, rgb{0.5, 0.5, 0.5})
	}
	return im
}

// Save writes every image as a binary PPM into dir, plus a labels.tsv file
// mapping ids to categories.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var labels strings.Builder
	for _, it := range d.Items {
		f, err := os.Create(filepath.Join(dir, it.ID+".ppm"))
		if err != nil {
			return err
		}
		if err := imgio.EncodePPM(f, it.Image); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(&labels, "%s\t%s\n", it.ID, it.Category)
	}
	return os.WriteFile(filepath.Join(dir, "labels.tsv"), []byte(labels.String()), 0o644)
}

// Load reads a dataset saved by Save.
func Load(dir string) (*Dataset, error) {
	data, err := os.ReadFile(filepath.Join(dir, "labels.tsv"))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading labels: %w", err)
	}
	var d Dataset
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			return nil, fmt.Errorf("dataset: malformed label line %q", line)
		}
		f, err := os.Open(filepath.Join(dir, parts[0]+".ppm"))
		if err != nil {
			return nil, err
		}
		im, err := imgio.DecodePPM(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dataset: decoding %s: %w", parts[0], err)
		}
		d.Items = append(d.Items, Item{ID: parts[0], Category: Category(parts[1]), Image: im})
	}
	sort.Slice(d.Items, func(i, j int) bool { return d.Items[i].ID < d.Items[j].ID })
	return &d, nil
}
