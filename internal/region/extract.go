//walrus:lint-hot per-window signature extraction dominates indexing cost
package region

import (
	"fmt"

	"walrus/internal/birch"
	"walrus/internal/colorspace"
	"walrus/internal/imgio"
	"walrus/internal/wavelet"
)

// Options configures region extraction. The defaults (DefaultOptions)
// reproduce the parameters of the paper's retrieval experiments
// (Section 6.4): 64×64 sliding windows, 2×2 signatures per color channel
// (12 dimensions in a 3-channel space), εc = 0.05 and a 16×16 bitmap.
type Options struct {
	// MaxWindow is the largest sliding window side ωmax (power of two).
	MaxWindow int
	// MinWindow is the smallest window side ωmin (power of two,
	// <= MaxWindow). The paper's retrieval experiments used a single fixed
	// size, MinWindow == MaxWindow == 64.
	MinWindow int
	// Signature is s; each window contributes an s×s low band per channel.
	Signature int
	// Step is the sliding distance t between adjacent windows.
	Step int
	// ClusterEps is εc, the BIRCH radius threshold.
	ClusterEps float64
	// BitmapGrid is k, the side of the coarse coverage bitmap.
	BitmapGrid int
	// Space is the color space signatures are computed in.
	Space colorspace.Space
	// MaxRegions caps the number of regions per image (0 = unlimited); the
	// CF-tree is rebuilt with doubled thresholds until it fits.
	MaxRegions int
	// MergeRegions runs an agglomerative repair pass after BIRCH
	// pre-clustering, merging clusters whose union still fits within
	// ClusterEps. This removes insertion-order artifacts at a small O(k²)
	// cost per image.
	MergeRegions bool
	// RefineIterations, when positive, runs up to that many rounds of
	// centroid refinement (BIRCH's optional phase 4) after pre-clustering,
	// reassigning every window to its nearest cluster centroid. This
	// removes insertion-order sensitivity at the cost of extra passes.
	RefineIterations int
	// Workers is kept so existing callers compile; a negative value is
	// still rejected. One extraction runs on its caller's goroutine, and
	// callers that ingest many images fan the images out instead.
	//
	// Deprecated: ignored.
	Workers int
	// FineSignature, when nonzero, additionally stores a finer
	// FineSignature×FineSignature low band per channel with every region,
	// enabling the refined matching phase of Section 5.5 (re-verifying
	// candidate region pairs with more detailed signatures). Must be a
	// power of two in (Signature, MinWindow].
	FineSignature int
}

// DefaultOptions returns the paper's retrieval parameters.
func DefaultOptions() Options {
	return Options{
		MaxWindow:  64,
		MinWindow:  64,
		Signature:  2,
		Step:       8,
		ClusterEps: 0.05,
		BitmapGrid: 16,
		Space:      colorspace.YCC,
	}
}

// Validate checks option consistency.
func (o Options) Validate() error {
	p := wavelet.SlidingParams{MaxWindow: o.MaxWindow, Signature: o.Signature, Step: o.Step}
	if err := p.Validate(); err != nil {
		return err
	}
	if o.MinWindow < 2 || o.MinWindow > o.MaxWindow || o.MinWindow&(o.MinWindow-1) != 0 {
		return fmt.Errorf("region: MinWindow %d must be a power of two in [2, MaxWindow]", o.MinWindow)
	}
	if o.ClusterEps < 0 {
		return fmt.Errorf("region: negative ClusterEps %v", o.ClusterEps)
	}
	if o.BitmapGrid < 1 || o.BitmapGrid > 256 {
		return fmt.Errorf("region: BitmapGrid %d out of range [1,256]", o.BitmapGrid)
	}
	if o.MaxRegions < 0 {
		return fmt.Errorf("region: negative MaxRegions %d", o.MaxRegions)
	}
	if o.RefineIterations < 0 {
		return fmt.Errorf("region: negative RefineIterations %d", o.RefineIterations)
	}
	if o.Workers < 0 {
		return fmt.Errorf("region: negative Workers %d", o.Workers)
	}
	if o.FineSignature != 0 {
		if o.FineSignature <= o.Signature || o.FineSignature > o.MinWindow || o.FineSignature&(o.FineSignature-1) != 0 {
			return fmt.Errorf("region: FineSignature %d must be a power of two in (Signature=%d, MinWindow=%d]",
				o.FineSignature, o.Signature, o.MinWindow)
		}
	}
	return nil
}

// Dim returns the signature dimensionality: channels × s².
func (o Options) Dim() int {
	return o.Space.Channels() * o.Signature * o.Signature
}

// Region is one extracted image region: a cluster of sliding windows with
// similar wavelet signatures.
type Region struct {
	// Signature is the cluster centroid in signature space (length
	// Options.Dim()).
	Signature []float64
	// Min and Max bound the member window signatures elementwise — the
	// alternative bounding-box region signature of Section 4.
	Min, Max []float64
	// Bitmap marks the image cells covered by the cluster's windows.
	Bitmap Bitmap
	// Windows is the number of sliding windows in the cluster.
	Windows int
	// Fine is the centroid of the members' finer signatures (length
	// channels × FineSignature²); nil unless Options.FineSignature is set.
	// It backs the refined matching phase of Section 5.5.
	Fine []float64
}

// windowRef records the geometry of one sliding window.
type windowRef struct {
	x, y, size int
}

// Extractor turns images into region sets. It is stateless apart from the
// options and safe for concurrent use.
type Extractor struct {
	opts Options
}

// NewExtractor validates opts and returns an Extractor.
func NewExtractor(opts Options) (*Extractor, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Extractor{opts: opts}, nil
}

// Options returns the extractor's configuration.
func (e *Extractor) Options() Options { return e.opts }

// Extract decomposes an RGB image into regions. Images smaller than
// MinWindow in either dimension yield an error.
func (e *Extractor) Extract(im *imgio.Image) ([]Region, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if im.C != 3 {
		return nil, fmt.Errorf("region: Extract requires a 3-channel RGB image, got %d channels", im.C)
	}
	if im.W < e.opts.MinWindow || im.H < e.opts.MinWindow {
		return nil, fmt.Errorf("region: image %dx%d smaller than minimum window %d", im.W, im.H, e.opts.MinWindow)
	}
	points, fines, refs, err := e.windowSignatures(im)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("region: image %dx%d produced no windows", im.W, im.H)
	}
	clusters, err := birch.ClusterPoints(points, e.opts.ClusterEps, e.opts.MaxRegions)
	if err != nil {
		return nil, err
	}
	if e.opts.MergeRegions {
		clusters = birch.MergeClusters(clusters, e.opts.ClusterEps)
	}
	if e.opts.RefineIterations > 0 {
		clusters = birch.RefineClusters(points, clusters, e.opts.RefineIterations)
	}

	regions := make([]Region, len(clusters))
	var fineFlat []float64
	if fines != nil {
		fineFlat = make([]float64, len(clusters)*len(fines[0]))
	}
	for i, c := range clusters {
		r := &regions[i]
		*r = Region{
			Signature: c.Centroid,
			Min:       c.Min,
			Max:       c.Max,
			Bitmap:    NewBitmap(e.opts.BitmapGrid),
			Windows:   len(c.Members),
		}
		for _, m := range c.Members {
			w := refs[m]
			r.Bitmap.CoverWindow(w.x, w.y, w.size, w.size, im.W, im.H)
		}
		if fines != nil {
			fd := len(fines[0])
			r.Fine = fineFlat[i*fd : (i+1)*fd : (i+1)*fd]
			for _, m := range c.Members {
				for j, v := range fines[m] {
					r.Fine[j] += v
				}
			}
			for j := range r.Fine {
				r.Fine[j] /= float64(len(c.Members))
			}
		}
	}
	return regions, nil
}

// windowSignatures computes the signature point of every sliding window of
// every configured size of the RGB image im, together with the window
// geometries. Points are the concatenation of the per-channel s×s low
// bands in the configured colour space; when FineSignature is enabled a
// parallel slice of finer signature vectors is returned (the coarse point
// is the top-left corner of the fine one, so a single wavelet pass serves
// both). Every point and fine vector is a slice of one array sized up
// front.
func (e *Extractor) windowSignatures(im *imgio.Image) (points, fines [][]float64, refs []windowRef, err error) {
	maxWin := e.opts.MaxWindow
	// Clamp ωmax to the image; Validate already ensured MinWindow fits.
	for maxWin > im.W || maxWin > im.H {
		maxWin /= 2
	}
	s, fs := e.opts.Signature, e.opts.FineSignature
	params := wavelet.SlidingParams{
		MaxWindow: maxWin,
		MinWindow: e.opts.MinWindow,
		Signature: max(s, fs),
		Step:      e.opts.Step,
	}
	pyramids, err := wavelet.ComputeSlidingWindowsRGB(im, e.opts.Space, params)
	if err != nil {
		return nil, nil, nil, err
	}
	sizes := pyramids[0].Sizes()
	n := 0
	for _, win := range sizes {
		g := pyramids[0].Level(win)
		n += g.NX * g.NY
	}
	nc := len(pyramids)
	dim, fdim := nc*s*s, nc*fs*fs
	flat := make([]float64, n*(dim+fdim))
	pointFlat, fineFlat := flat[:n*dim], flat[n*dim:]
	points = make([][]float64, n)
	if fs > 0 {
		fines = make([][]float64, n)
	}
	refs = make([]windowRef, n)
	grids := make([]*wavelet.Grid, nc)
	k := 0
	for _, win := range sizes {
		for c, pyr := range pyramids {
			grids[c] = pyr.Level(win)
		}
		g := grids[0]
		for iy := 0; iy < g.NY; iy++ {
			for ix := 0; ix < g.NX; ix++ {
				p := pointFlat[k*dim : (k+1)*dim : (k+1)*dim]
				for c, gc := range grids {
					cornerBlock(p[c*s*s:(c+1)*s*s], gc.SigAt(ix, iy), g.Sig, s)
				}
				points[k] = p
				if fs > 0 {
					f := fineFlat[k*fdim : (k+1)*fdim : (k+1)*fdim]
					for c, gc := range grids {
						cornerBlock(f[c*fs*fs:(c+1)*fs*fs], gc.SigAt(ix, iy), g.Sig, fs)
					}
					fines[k] = f
				}
				x, y := g.PosOf(ix, iy)
				refs[k] = windowRef{x: x, y: y, size: win}
				k++
			}
		}
	}
	return points, fines, refs, nil
}

// cornerBlock copies the top-left want×want corner of a stored have×have
// signature block into the dense want×want vector dst, which must be
// zeroed. When have < want (a window smaller than the signature) the
// available coefficients land in the top-left and the rest stay zero, so
// all points share one dimensionality.
func cornerBlock(dst, blk []float64, have, want int) {
	n := min(have, want)
	for r := 0; r < n; r++ {
		copy(dst[r*want:r*want+n], blk[r*have:r*have+n])
	}
}
