//walrus:lint-hot sliding-window DP is the per-image signature hot path
package wavelet

import (
	"fmt"
	"math/bits"

	"walrus/internal/colorspace"
	"walrus/internal/imgio"
)

// SlidingParams configures sliding-window signature computation
// (procedure computeSlidingWindows, Figure 5 of the paper).
type SlidingParams struct {
	// MaxWindow is ωmax, the largest window side. Signatures are produced
	// for every window size 2, 4, ..., MaxWindow. Must be a power of two.
	MaxWindow int
	// MinWindow, when nonzero, is the smallest window side the caller
	// reads (a power of two <= MaxWindow). Smaller levels are still
	// computed, since each level is assembled from the one below it, but
	// they are not returned, and each stores only the coefficients the
	// level above reads, in two buffers reused level to level. 0 returns
	// every level.
	MinWindow int
	// Signature is s, the side of the retained low-frequency signature
	// block: each window keeps the top-left min(ω, s) × min(ω, s) corner of
	// its wavelet transform. Must be a power of two.
	Signature int
	// Step is t, the nominal horizontal/vertical distance between the
	// top-left corners of adjacent windows. The effective distance for
	// window size ω is min(ω, t), which keeps subwindow positions aligned
	// with the previous level. Must be a power of two.
	Step int
	// Workers is kept so existing callers compile; a negative value is
	// still rejected. The DP runs on the calling goroutine: a level's
	// windows cost a few additions each, less than waking another core.
	//
	// Deprecated: ignored.
	Workers int
}

// Validate checks that all parameters are powers of two within sane bounds.
func (p SlidingParams) Validate() error {
	switch {
	case !isPow2(p.MaxWindow) || p.MaxWindow < 2:
		return fmt.Errorf("wavelet: MaxWindow %d must be a power of two >= 2", p.MaxWindow)
	case p.MinWindow != 0 && (!isPow2(p.MinWindow) || p.MinWindow < 2 || p.MinWindow > p.MaxWindow):
		return fmt.Errorf("wavelet: MinWindow %d must be 0 or a power of two in [2, MaxWindow]", p.MinWindow)
	case !isPow2(p.Signature) || p.Signature < 1:
		return fmt.Errorf("wavelet: Signature %d must be a power of two >= 1", p.Signature)
	case p.Signature > p.MaxWindow:
		return fmt.Errorf("wavelet: Signature %d exceeds MaxWindow %d", p.Signature, p.MaxWindow)
	case !isPow2(p.Step) || p.Step < 1:
		return fmt.Errorf("wavelet: Step %d must be a power of two >= 1", p.Step)
	case p.Workers < 0:
		return fmt.Errorf("wavelet: negative Workers %d", p.Workers)
	}
	return nil
}

// Grid holds the signatures of all ω×ω windows of one window size, laid out
// on the regular grid of window positions.
type Grid struct {
	Window int // ω
	Sig    int // side of each stored signature block: min(ω, s)
	Step   int // distance between adjacent windows: min(ω, t)
	NX, NY int // number of window positions horizontally / vertically
	// Data stores NY*NX signature blocks of Sig*Sig values each, row-major
	// over (iy, ix) and then row-major within the block.
	Data []float64
}

// gridShape lays out the window-side win grid of an imgW×imgH image
// whose windows each store a sig×sig block; Data is left nil.
func gridShape(win, sig, step, imgW, imgH int) Grid {
	dist := min(win, step)
	return Grid{Window: win, Sig: sig, Step: dist, NX: (imgW-win)/dist + 1, NY: (imgH-win)/dist + 1}
}

// size is the length of g's Data.
func (g *Grid) size() int { return g.NX * g.NY * g.Sig * g.Sig }

// SigAt returns the signature block of the window whose grid position is
// (ix, iy); its top-left pixel is (ix*Step, iy*Step). The returned slice
// aliases the grid's backing array.
func (g *Grid) SigAt(ix, iy int) []float64 {
	blk := g.Sig * g.Sig
	off := (iy*g.NX + ix) * blk
	return g.Data[off : off+blk]
}

// PosOf returns the top-left pixel coordinates of grid position (ix, iy).
func (g *Grid) PosOf(ix, iy int) (x, y int) { return ix * g.Step, iy * g.Step }

// Pyramid is the full output of sliding-window signature computation: one
// Grid per window size 2, 4, ..., MaxWindow (from MinWindow up when that
// is set).
type Pyramid struct {
	ImageW, ImageH int
	Params         SlidingParams
	levels         []*Grid // in increasing window size
}

// Level returns the grid for window size ω, or nil if that size was not
// computed (ω out of range or larger than the image) or not returned
// (ω below MinWindow).
func (p *Pyramid) Level(window int) *Grid {
	for _, g := range p.levels {
		if g.Window == window {
			return g
		}
	}
	return nil
}

// Sizes returns the window sizes present in the pyramid, in increasing
// order.
func (p *Pyramid) Sizes() []int {
	out := make([]int, len(p.levels))
	for i, g := range p.levels {
		out[i] = g.Window
	}
	return out
}

// numLevels is the number of window sizes 2, 4, ..., maxWindow that fit in
// an imgW×imgH image.
func numLevels(maxWindow, imgW, imgH int) int {
	n := 0
	for win := 2; win <= maxWindow && win <= imgW && win <= imgH; win *= 2 {
		n++
	}
	return n
}

// ComputeSlidingWindows computes signatures for every sliding window with a
// power-of-two size between 2×2 and MaxWindow×MaxWindow in an imgW×imgH
// single-channel image, using the dynamic programming algorithm of Figure 5:
// the transform of each ω×ω window is assembled from the transforms of its
// four ω/2×ω/2 subwindows, so the total cost is O(N·s²·log ωmax) rather
// than the naive O(N·ω²max).
//
// plane is the image in row-major order (len == imgW*imgH).
func ComputeSlidingWindows(plane []float64, imgW, imgH int, params SlidingParams) (*Pyramid, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(plane) != imgW*imgH {
		return nil, fmt.Errorf("wavelet: plane has %d values, want %d (%dx%d)", len(plane), imgW*imgH, imgW, imgH)
	}
	pyrs, err := slide(imgW, imgH, 1, params, func(iy int, base []Grid) {
		g := &base[0]
		for ix := 0; ix < g.NX; ix++ {
			// Base level: 1×1 "signatures" are the raw pixels.
			x, y := g.PosOf(ix, iy)
			i := y*imgW + x
			combineBase(plane[i], plane[i+1], plane[i+imgW], plane[i+imgW+1], g.SigAt(ix, iy), g.Sig)
		}
	})
	if err != nil {
		return nil, err
	}
	return pyrs[0], nil
}

// ComputeSlidingWindowsRGB computes one pyramid per channel of the RGB
// image im converted to space to. The result is bit for bit what
// ComputeSlidingWindows returns on each plane of colorspace.FromRGB(im,
// to), but no converted image is built: the base level reads the RGB
// planes and converts the pixels its windows cover with
// colorspace.ConvertRow, the function FromRGB is written on, a short run
// of the two pixel rows under a row of base windows at a time, into a
// buffer on the stack. Like FromRGB it rejects an image with a NaN or
// infinite sample anywhere, read or not.
func ComputeSlidingWindowsRGB(im *imgio.Image, to colorspace.Space, params SlidingParams) ([]*Pyramid, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := colorspace.CheckRGB(im, to); err != nil {
		return nil, err
	}
	w := im.W
	r, g, b := im.Plane(0), im.Plane(1), im.Plane(2)
	return slide(im.W, im.H, to.Channels(), params, func(iy int, base []Grid) {
		// The base windows' step is min(2, t), so a run of baseRun
		// windows spans at most 2*baseRun pixels of each of its two rows.
		const baseRun = 32
		var px [2][3][2 * baseRun]float64 // [row][channel][pixel]
		g0 := &base[0]
		for ix0 := 0; ix0 < g0.NX; ix0 += baseRun {
			n := min(baseRun, g0.NX-ix0)
			x0, y := g0.PosOf(ix0, iy)
			cols := (n-1)*g0.Step + 2
			for k := range px {
				i := (y+k)*w + x0
				colorspace.ConvertRow(to, px[k][0][:cols], px[k][1][:cols], px[k][2][:cols], r[i:i+cols], g[i:i+cols], b[i:i+cols])
			}
			// Every channel's grid has g0's shape.
			blk := g0.Sig * g0.Sig
			off := (iy*g0.NX + ix0) * blk
			for c := range base {
				out := base[c].Data[off : off+n*blk]
				p0, p1 := &px[0][c], &px[1][c]
				if blk == 1 {
					for j := range out {
						x := j * g0.Step
						out[j] = mean4(p0[x], p0[x+1], p1[x], p1[x+1])
					}
					continue
				}
				for j := 0; j < n; j++ {
					x := j * g0.Step
					combineBase(p0[x], p0[x+1], p1[x], p1[x+1], out[j*blk:(j+1)*blk], g0.Sig)
				}
			}
		}
	})
}

// slide runs the DP of Figure 5 on the nc channels of an imgW×imgH image.
// base fills row iy of the window-2 level of every channel; each larger
// level is assembled from the one below it.
//
// A level stores per window the side min(ω, max(s if ω ≥ MinWindow,
// stored(2ω)/2, 1)), decided from the top level down. assemble builds a
// q×q block from the q/2×q/2 corners of its children, and the top-left
// q×q corner of a larger block is computed by exactly the same operations
// (assemble's recursion), so storing less never changes a stored bit. On
// every returned level the side is min(ω, s), as without MinWindow; below
// it, at the paper's s = 2, each window keeps only its mean.
func slide(imgW, imgH, nc int, params SlidingParams, base func(iy int, lv []Grid)) ([]*Pyramid, error) {
	n := numLevels(params.MaxWindow, imgW, imgH)
	first := 0 // index of the smallest returned level
	for first < n && 2<<first < params.MinWindow {
		first++
	}
	if first == n {
		return nil, fmt.Errorf("wavelet: image %dx%d too small for any window", imgW, imgH)
	}
	// grids[i*nc+c] is channel c's level of window 2<<i.
	grids := make([]Grid, n*nc)
	stored, kept, scratch := 0, 0, [2]int{}
	for i := n - 1; i >= 0; i-- {
		win := 2 << i
		side := max(stored/2, 1)
		if i >= first {
			side = max(side, params.Signature)
		}
		stored = min(win, side)
		shape := gridShape(win, stored, params.Step, imgW, imgH)
		if i >= first {
			kept += nc * shape.size()
		} else {
			scratch[i%2] = max(scratch[i%2], nc*shape.size())
		}
		for c := 0; c < nc; c++ {
			grids[i*nc+c] = shape
		}
	}
	// Levels below first alternate between the two halves of buf; each
	// one reads only the level just below it, and every coefficient is
	// written before it is read, so neither half needs clearing.
	buf := make([]float64, scratch[0]+scratch[1])
	data := make([]float64, kept)
	for i := range grids {
		g := &grids[i]
		sz := g.size()
		if i/nc >= first {
			g.Data, data = data[:sz:sz], data[sz:]
		} else {
			off := (i % nc) * sz
			if (i/nc)%2 == 1 {
				off += scratch[0]
			}
			g.Data = buf[off : off+sz : off+sz]
		}
	}
	// Every level runs on the calling goroutine. A window costs a few
	// additions, so even the largest level of a paper-size image is worth
	// less than waking another core; parallelism pays across images.
	for iy := 0; iy < grids[0].NY; iy++ {
		base(iy, grids[:nc])
	}
	for i := nc; i < n*nc; i++ {
		assembleLevel(&grids[i], &grids[i-nc])
	}
	// The returned levels share grids' backing array; unlink buf so a
	// Pyramid the caller keeps does not keep it alive too.
	for i := 0; i < first*nc; i++ {
		grids[i].Data = nil
	}
	pyrs := make([]Pyramid, nc)
	levels := make([]*Grid, nc*(n-first))
	out := make([]*Pyramid, nc)
	for c := range pyrs {
		lv := levels[c*(n-first) : (c+1)*(n-first)]
		for i := range lv {
			lv[i] = &grids[(first+i)*nc+c]
		}
		pyrs[c] = Pyramid{ImageW: imgW, ImageH: imgH, Params: params, levels: lv}
		out[c] = &pyrs[c]
	}
	return out, nil
}

// assembleLevel fills g, one window at a time, from the four subwindows
// of each in the level below, src.
//
// Steps are powers of two with src.Step <= g.Step, and a child's offset
// half = g.Window/2 = src.Window is a multiple of src.Step, so the child
// at pixel offset (dx, dy) from window (ix, iy) sits at grid position
// (ix*r + dx/src.Step, iy*r + dy/src.Step) with r = g.Step/src.Step: one
// shift per level replaces four divisions per window.
func assembleLevel(g, src *Grid) {
	shift := bits.TrailingZeros(uint(g.Step / src.Step))
	h := g.Window / 2 >> bits.TrailingZeros(uint(src.Step))
	if g.Sig <= 2 {
		// Flat path: a one- or two-coefficient parent reads only its
		// children's means, the first coefficient of each block, and
		// combineBase is what assemble computes for q <= 2.
		a, cb, pb := src.Data, src.Sig*src.Sig, g.Sig*g.Sig
		for iy := 0; iy < g.NY; iy++ {
			top := (iy << shift) * src.NX
			bot := top + h*src.NX
			out := g.Data[iy*g.NX*pb : (iy+1)*g.NX*pb]
			if pb == 1 {
				for ix := range out {
					c := ix << shift
					out[ix] = mean4(a[(top+c)*cb], a[(top+c+h)*cb], a[(bot+c)*cb], a[(bot+c+h)*cb])
				}
				continue
			}
			for ix := 0; ix < g.NX; ix++ {
				c := ix << shift
				combineBase(a[(top+c)*cb], a[(top+c+h)*cb], a[(bot+c)*cb], a[(bot+c+h)*cb], out[ix*pb:(ix+1)*pb], g.Sig)
			}
		}
		return
	}
	for iy := 0; iy < g.NY; iy++ {
		top, bot := iy<<shift, iy<<shift+h
		for ix := 0; ix < g.NX; ix++ {
			c := ix << shift
			w1 := src.SigAt(c, top)
			w2 := src.SigAt(c+h, top)
			w3 := src.SigAt(c, bot)
			w4 := src.SigAt(c+h, bot)
			assemble(w1, w2, w3, w4, src.Sig, g.SigAt(ix, iy), g.Sig, g.Sig)
		}
	}
}

// combineBase performs one round of horizontal and vertical averaging and
// differencing on four scalar averages (the base case of procedure
// computeSingleWindow, Figure 4). sig is 1 or 2: for sig 1 only the overall
// average is kept.
func combineBase(a1, a2, a3, a4 float64, dst []float64, sig int) {
	dst[0] = mean4(a1, a2, a3, a4)
	if sig == 1 {
		return
	}
	dst[1] = (-a1 + a2 - a3 + a4) / 4 // horizontal detail
	dst[sig] = (-a1 - a2 + a3 + a4) / 4
	dst[sig+1] = (a1 - a2 - a3 + a4) / 4
}

// mean4 is the average of four children, the one coefficient a window
// of side 2ω keeps from its four ω-side subwindows' averages.
func mean4(a1, a2, a3, a4 float64) float64 { return (a1 + a2 + a3 + a4) / 4 }

// assemble implements procedures computeSingleWindow and copyBlocks
// (Figures 3 and 4): it fills the top-left q×q corner of dst (a block with
// row stride dstStride) with the wavelet transform of the parent window's
// averages, given the four children's stored signature blocks w1..w4 (each
// with row stride childStride, of which the top-left q/2×q/2 corner is
// consumed). Children are ordered top-left, top-right, bottom-left,
// bottom-right.
func assemble(w1, w2, w3, w4 []float64, childStride int, dst []float64, dstStride, q int) {
	if q == 1 {
		dst[0] = mean4(w1[0], w2[0], w3[0], w4[0])
		return
	}
	if q == 2 {
		combineBase(w1[0], w2[0], w3[0], w4[0], dst, dstStride)
		return
	}
	h := q / 2  // quadrant side in dst
	hq := q / 4 // quadrant side contributed by each child
	// copyBlocks: tile the three detail quadrants of dst from the
	// corresponding detail quadrants of the children.
	copyQuad := func(src []float64, srcR, srcC, dstR, dstC int) {
		for r := 0; r < hq; r++ {
			srcOff := (srcR+r)*childStride + srcC
			dstOff := (dstR+r)*dstStride + dstC
			copy(dst[dstOff:dstOff+hq], src[srcOff:srcOff+hq])
		}
	}
	// Child detail quadrants live at rows/cols [0,hq) and [hq,2hq) within
	// the child's top-left 2hq×2hq effective transform.
	// Upper-right quadrant of dst (horizontal details).
	copyQuad(w1, 0, hq, 0, h)
	copyQuad(w2, 0, hq, 0, h+hq)
	copyQuad(w3, 0, hq, hq, h)
	copyQuad(w4, 0, hq, hq, h+hq)
	// Lower-left quadrant (vertical details).
	copyQuad(w1, hq, 0, h, 0)
	copyQuad(w2, hq, 0, h, hq)
	copyQuad(w3, hq, 0, h+hq, 0)
	copyQuad(w4, hq, 0, h+hq, hq)
	// Lower-right quadrant (diagonal details).
	copyQuad(w1, hq, hq, h, h)
	copyQuad(w2, hq, hq, h, h+hq)
	copyQuad(w3, hq, hq, h+hq, h)
	copyQuad(w4, hq, hq, h+hq, h+hq)
	assemble(w1, w2, w3, w4, childStride, dst, dstStride, h)
}

// NaiveSlidingWindows computes the same pyramid as ComputeSlidingWindows by
// independently applying the full two-dimensional Haar transform to each
// window (the naive scheme the paper compares against in Section 6.3). Its
// cost is O(ω² ) per window.
func NaiveSlidingWindows(plane []float64, imgW, imgH int, params SlidingParams) (*Pyramid, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(plane) != imgW*imgH {
		return nil, fmt.Errorf("wavelet: plane has %d values, want %d (%dx%d)", len(plane), imgW*imgH, imgW, imgH)
	}
	n := numLevels(params.MaxWindow, imgW, imgH)
	if n == 0 {
		return nil, fmt.Errorf("wavelet: image %dx%d too small for any window", imgW, imgH)
	}
	levels := make([]*Grid, n)
	for i := range levels {
		g, err := NaiveWindowSignatures(plane, imgW, imgH, 2<<i, params.Signature, params.Step)
		if err != nil {
			return nil, err
		}
		levels[i] = g
	}
	return &Pyramid{ImageW: imgW, ImageH: imgH, Params: params, levels: levels}, nil
}

// NaiveWindowSignatures computes signatures for the sliding windows of a
// single window size by applying the full two-dimensional transform to
// each window independently — the literal naive scheme of Section 6.3,
// whose cost O(N·ω²) is independent of the signature size. (The DP
// algorithm has no single-size variant: it inherently builds every smaller
// size on the way up, which is exactly the trade the paper measures.)
func NaiveWindowSignatures(plane []float64, imgW, imgH, window, sig, step int) (*Grid, error) {
	if !isPow2(window) || window < 2 {
		return nil, fmt.Errorf("wavelet: window %d must be a power of two >= 2", window)
	}
	if !isPow2(step) || step < 1 {
		return nil, fmt.Errorf("wavelet: step %d must be a power of two >= 1", step)
	}
	if window > imgW || window > imgH {
		return nil, fmt.Errorf("wavelet: window %d exceeds image %dx%d", window, imgW, imgH)
	}
	if len(plane) != imgW*imgH {
		return nil, fmt.Errorf("wavelet: plane has %d values, want %d (%dx%d)", len(plane), imgW*imgH, imgW, imgH)
	}
	s := min(window, sig)
	g := gridShape(window, s, step, imgW, imgH)
	g.Data = make([]float64, g.size())
	scratch := NewMatrix(window, window)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			x, y := g.PosOf(ix, iy)
			for r := 0; r < window; r++ {
				copy(scratch.Data[r*window:(r+1)*window], plane[(y+r)*imgW+x:(y+r)*imgW+x+window])
			}
			coeffs, err := Transform2D(scratch)
			if err != nil {
				return nil, err
			}
			dst := g.SigAt(ix, iy)
			for r := 0; r < s; r++ {
				copy(dst[r*s:(r+1)*s], coeffs.Data[r*window:r*window+s])
			}
		}
	}
	return &g, nil
}

// WindowSignature computes the s×s low-frequency signature of the single
// ω×ω window rooted at pixel (x, y), by direct transform. It is a
// convenience for tests and for callers that need one window only.
func WindowSignature(plane []float64, imgW, imgH, x, y, window, sig int) ([]float64, error) {
	if !isPow2(window) || window < 2 {
		return nil, fmt.Errorf("wavelet: window %d must be a power of two >= 2", window)
	}
	if x < 0 || y < 0 || x+window > imgW || y+window > imgH {
		return nil, fmt.Errorf("wavelet: window %d at (%d,%d) exceeds image %dx%d", window, x, y, imgW, imgH)
	}
	s := min(window, sig)
	scratch := NewMatrix(window, window)
	for r := 0; r < window; r++ {
		copy(scratch.Data[r*window:(r+1)*window], plane[(y+r)*imgW+x:(y+r)*imgW+x+window])
	}
	coeffs, err := Transform2D(scratch)
	if err != nil {
		return nil, err
	}
	out := make([]float64, s*s)
	for r := 0; r < s; r++ {
		copy(out[r*s:(r+1)*s], coeffs.Data[r*window:r*window+s])
	}
	return out, nil
}
