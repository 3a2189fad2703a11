package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"walrus/internal/colorspace"
	"walrus/internal/imgio"
)

// This file holds the sliding-window DP as it was before every level ran
// on the caller's goroutine and one- and two-coefficient levels were
// assembled from flat indices: each level in storage of its own, each
// window's four children found by dividing pixel positions by the child
// level's step and read through SigAt, and assembled by refAssemble. The
// tests below hold the DP to exactly these bits.

// refCombineBase is combineBase as it was.
func refCombineBase(a1, a2, a3, a4 float64, dst []float64, sig int) {
	if sig == 1 {
		dst[0] = (a1 + a2 + a3 + a4) / 4
		return
	}
	dst[0] = (a1 + a2 + a3 + a4) / 4
	dst[1] = (-a1 + a2 - a3 + a4) / 4
	dst[sig] = (-a1 - a2 + a3 + a4) / 4
	dst[sig+1] = (a1 - a2 - a3 + a4) / 4
}

// refAssemble is assemble as it was: copyBlocks for the three detail
// quadrants, then the recursion into the top-left one.
func refAssemble(w1, w2, w3, w4 []float64, childStride int, dst []float64, dstStride, q int) {
	if q == 1 {
		dst[0] = (w1[0] + w2[0] + w3[0] + w4[0]) / 4
		return
	}
	if q == 2 {
		refCombineBase(w1[0], w2[0], w3[0], w4[0], dst, dstStride)
		return
	}
	h, hq := q/2, q/4
	copyQuad := func(src []float64, srcR, srcC, dstR, dstC int) {
		for r := 0; r < hq; r++ {
			srcOff := (srcR+r)*childStride + srcC
			dstOff := (dstR+r)*dstStride + dstC
			copy(dst[dstOff:dstOff+hq], src[srcOff:srcOff+hq])
		}
	}
	copyQuad(w1, 0, hq, 0, h)
	copyQuad(w2, 0, hq, 0, h+hq)
	copyQuad(w3, 0, hq, hq, h)
	copyQuad(w4, 0, hq, hq, h+hq)
	copyQuad(w1, hq, 0, h, 0)
	copyQuad(w2, hq, 0, h, hq)
	copyQuad(w3, hq, 0, h+hq, 0)
	copyQuad(w4, hq, 0, h+hq, hq)
	copyQuad(w1, hq, hq, h, h)
	copyQuad(w2, hq, hq, h, h+hq)
	copyQuad(w3, hq, hq, h+hq, h)
	copyQuad(w4, hq, hq, h+hq, h+hq)
	refAssemble(w1, w2, w3, w4, childStride, dst, dstStride, h)
}

// refAssembleRow is assembleRow as it was.
func refAssembleRow(g, src *Grid, iy int) {
	half := g.Window / 2
	for ix := 0; ix < g.NX; ix++ {
		x, y := g.PosOf(ix, iy)
		w1 := src.SigAt(x/src.Step, y/src.Step)
		w2 := src.SigAt((x+half)/src.Step, y/src.Step)
		w3 := src.SigAt(x/src.Step, (y+half)/src.Step)
		w4 := src.SigAt((x+half)/src.Step, (y+half)/src.Step)
		refAssemble(w1, w2, w3, w4, src.Sig, g.SigAt(ix, iy), g.Sig, g.Sig)
	}
}

// refLevels runs the reference DP on one plane and returns every level,
// window 2<<i at index i, with the stored sides of slide's top-down rule,
// and the index of the smallest level slide returns.
func refLevels(plane []float64, imgW, imgH int, p SlidingParams) (levels []Grid, first int) {
	n := numLevels(p.MaxWindow, imgW, imgH)
	for first < n && 2<<first < p.MinWindow {
		first++
	}
	levels = make([]Grid, n)
	stored := 0
	for i := n - 1; i >= 0; i-- {
		side := max(stored/2, 1)
		if i >= first {
			side = max(side, p.Signature)
		}
		stored = min(2<<i, side)
		levels[i] = gridShape(2<<i, stored, p.Step, imgW, imgH)
		levels[i].Data = make([]float64, levels[i].size())
	}
	g := &levels[0]
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			x, y := g.PosOf(ix, iy)
			i := y*imgW + x
			refCombineBase(plane[i], plane[i+1], plane[i+imgW], plane[i+imgW+1], g.SigAt(ix, iy), g.Sig)
		}
	}
	for i := 1; i < n; i++ {
		for iy := 0; iy < levels[i].NY; iy++ {
			refAssembleRow(&levels[i], &levels[i-1], iy)
		}
	}
	return levels, first
}

// referenceSide draws an image side of at least lo pixels for windows up
// to maxWin: odd, one pixel past a power-of-two window, or anything.
func referenceSide(rng *rand.Rand, lo, maxWin int) int {
	switch rng.Intn(3) {
	case 0:
		return (lo + rng.Intn(maxWin+24-lo)) | 1
	case 1:
		win := lo
		for win < maxWin && rng.Intn(2) == 0 {
			win *= 2
		}
		return win + 1
	default:
		return lo + rng.Intn(maxWin+24-lo)
	}
}

// checkAgainstReference compares every level got returns, and every level
// assembleLevel builds from the reference's level below it (the levels
// below MinWindow included, which slide keeps only as scratch), with the
// reference bit for bit.
func checkAgainstReference(t *testing.T, what string, got *Pyramid, levels []Grid, first int) {
	t.Helper()
	for i := 1; i < len(levels); i++ {
		g := levels[i]
		g.Data = make([]float64, g.size())
		assembleLevel(&g, &levels[i-1])
		if !sameBits(&g, &levels[i]) {
			t.Fatalf("%s: assembleLevel of window %d differs from the reference", what, g.Window)
		}
	}
	sizes := got.Sizes()
	if len(sizes) != len(levels)-first {
		t.Fatalf("%s: %d levels returned, reference %d", what, len(sizes), len(levels)-first)
	}
	for i, win := range sizes {
		if want := &levels[first+i]; win != want.Window || !sameBits(got.Level(win), want) {
			t.Fatalf("%s: level %d differs from the reference", what, win)
		}
	}
}

// TestSlidingMatchesReference: on seeded planes of random sizes (odd
// sides, sides one pixel past a window), at every step 1–16, signature
// side 1–4 and MinWindow up to MaxWindow ∈ {16, 64}, the DP stores and
// returns exactly the reference's bits, on one plane and on the colour
// planes ComputeSlidingWindowsRGB converts as it goes.
func TestSlidingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	spaces := []colorspace.Space{colorspace.YCC, colorspace.RGB, colorspace.HSV, colorspace.YIQ}
	cases := 0
	for _, maxWin := range []int{16, 64} {
		for minWin := 0; minWin <= maxWin; minWin = max(2, 2*minWin) {
			for _, step := range []int{1, 2, 4, 8, 16} {
				for _, sig := range []int{1, 2, 4} {
					p := SlidingParams{MaxWindow: maxWin, MinWindow: minWin, Signature: sig, Step: step}
					lo := max(minWin, 2)
					w, h := referenceSide(rng, lo, maxWin), referenceSide(rng, lo, maxWin)
					what := fmt.Sprintf("%dx%d %+v", w, h, p)

					plane := make([]float64, w*h)
					for i := range plane {
						plane[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(24)-12)
					}
					got, err := ComputeSlidingWindows(plane, w, h, p)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					levels, first := refLevels(plane, w, h, p)
					checkAgainstReference(t, what, got, levels, first)

					im := imgio.New(w, h, 3)
					for i := range im.Pix {
						im.Pix[i] = rng.Float64()
					}
					sp := spaces[cases%len(spaces)]
					conv, err := colorspace.FromRGB(im, sp)
					if err != nil {
						t.Fatal(err)
					}
					pyrs, err := ComputeSlidingWindowsRGB(im, sp, p)
					if err != nil {
						t.Fatalf("%s %v: %v", what, sp, err)
					}
					for c, pyr := range pyrs {
						levels, first := refLevels(conv.Plane(c), w, h, p)
						checkAgainstReference(t, fmt.Sprintf("%s %v channel %d", what, sp, c), pyr, levels, first)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d parameter sets", cases)
}
