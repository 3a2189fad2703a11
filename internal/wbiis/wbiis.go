// Package wbiis reimplements the WBIIS image indexing system of Wang,
// Wiederhold, Firschein and Wei (Int. J. Digital Libraries 1998), the
// baseline WALRUS is compared against in Section 6.4 of the paper. WBIIS
// computes one signature per image: feature vectors from 4- and 5-level
// Daubechies-4 wavelet transforms of the 128×128 rescaled image, plus the
// standard deviation of the coarsest band. Search proceeds in three steps:
// a crude variance filter, a refinement pass on the 5-level (coarser)
// vectors, and a final ranking on the 4-level vectors with a weighted
// euclidean distance.
//
// Because WBIIS summarizes the whole image in one signature, it cannot
// handle region queries or objects that moved or changed size — the
// failure mode WALRUS was designed to fix.
package wbiis

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"walrus/internal/colorspace"
	"walrus/internal/imgio"
	"walrus/internal/wavelet"
)

// side is the rescaled image side WBIIS operates on.
const side = 128

// Options configures a WBIIS index.
type Options struct {
	// Space is the color space feature vectors are computed in.
	Space colorspace.Space
	// Beta is the variance pre-filter tolerance: a candidate passes when
	// |σq − σt| < Beta·σq (per the WBIIS paper's acceptance criterion).
	Beta float64
	// LowWeight emphasizes the coarsest (upper-left) band in the weighted
	// distance; detail bands get weight 1.
	LowWeight float64
	// ChannelWeights weigh the color channels in the distance; the
	// luminance-like first channel usually carries more weight.
	ChannelWeights [3]float64
	// Refine is the multiple of the requested k kept after the 5-level
	// refinement pass.
	Refine int
}

// DefaultOptions mirrors the WBIIS paper's published setup.
func DefaultOptions() Options {
	return Options{
		Space:          colorspace.YCC,
		Beta:           0.5,
		LowWeight:      1.8,
		ChannelWeights: [3]float64{1.0, 0.7, 0.7},
		Refine:         5,
	}
}

// signature is one image's WBIIS feature set.
type signature struct {
	id    string
	f4    []float64 // upper-left 16×16 of the 4-level transform, 3 channels
	f5    []float64 // upper-left 8×8 of the 5-level transform, 3 channels
	sigma float64   // std dev of the 8×8 coarsest band (first channel)
}

// Match is one query result; lower distance is better.
type Match struct {
	ID       string
	Distance float64
}

// Index is an in-memory WBIIS index. Add and Query are safe for
// concurrent use.
type Index struct {
	opts Options
	mu   sync.RWMutex
	sigs []signature
}

// New creates an empty index.
func New(opts Options) (*Index, error) {
	if opts.Beta <= 0 || opts.LowWeight <= 0 || opts.Refine < 1 {
		return nil, fmt.Errorf("wbiis: invalid options %+v", opts)
	}
	return &Index{opts: opts}, nil
}

// Len returns the number of indexed images.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sigs)
}

// Add indexes an RGB image under id.
func (ix *Index) Add(id string, im *imgio.Image) error {
	sig, err := ix.signatureOf(id, im)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	ix.sigs = append(ix.sigs, sig)
	ix.mu.Unlock()
	return nil
}

func (ix *Index) signatureOf(id string, im *imgio.Image) (signature, error) {
	if im.C != 3 {
		return signature{}, fmt.Errorf("wbiis: image %q has %d channels, want 3", id, im.C)
	}
	scaled, err := imgio.Resize(im, side, side)
	if err != nil {
		return signature{}, err
	}
	conv, err := colorspace.FromRGB(scaled, ix.opts.Space)
	if err != nil {
		return signature{}, err
	}
	sig := signature{id: id}
	for c := 0; c < 3; c++ {
		plane := wavelet.Matrix{Rows: side, Cols: side, Data: conv.Plane(c)}
		t4, err := wavelet.DaubechiesTransform2D(plane, 4)
		if err != nil {
			return signature{}, err
		}
		t5, err := wavelet.DaubechiesTransform2D(plane, 5)
		if err != nil {
			return signature{}, err
		}
		sig.f4 = append(sig.f4, corner(t4, 16)...)
		sig.f5 = append(sig.f5, corner(t5, 8)...)
		if c == 0 {
			sig.sigma = stddev(corner(t4, 8))
		}
	}
	return sig, nil
}

// corner extracts the upper-left s×s block of a transform.
func corner(m wavelet.Matrix, s int) []float64 {
	out := make([]float64, 0, s*s)
	for r := 0; r < s; r++ {
		out = append(out, m.Data[r*m.Cols:r*m.Cols+s]...)
	}
	return out
}

// stddev is the population standard deviation of a feature vector — the
// σ the WBIIS variance filter compares.
func stddev(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	ss := 0.0
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(v)))
}

// acceptance is the WBIIS paper's variance pre-filter criterion: a
// candidate with std dev sigmaT passes against a query with std dev
// sigmaQ when |σq − σt| < β·σq, with an escape hatch accepting two
// near-flat signatures whose σ are both ~0. It is a heuristic, not a
// bound.
func acceptance(sigmaQ, sigmaT, beta float64) bool {
	return math.Abs(sigmaQ-sigmaT) < beta*sigmaQ || (sigmaQ < 1e-9 && sigmaT < 1e-9)
}

// Query returns the k indexed images most similar to im, via the
// three-step WBIIS search.
func (ix *Index) Query(im *imgio.Image, k int) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	q, err := ix.signatureOf("", im)
	if err != nil {
		return nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	// Step 1: variance filter.
	var candidates []*signature
	for i := range ix.sigs {
		s := &ix.sigs[i]
		if acceptance(q.sigma, s.sigma, ix.opts.Beta) {
			candidates = append(candidates, s)
		}
	}
	// If the filter is too harsh (e.g. flat query), fall back to everyone.
	if len(candidates) < k {
		candidates = candidates[:0]
		for i := range ix.sigs {
			candidates = append(candidates, &ix.sigs[i])
		}
	}

	// Step 2: refine on the coarser 5-level vectors.
	type scored struct {
		s *signature
		d float64
	}
	pass2 := make([]scored, len(candidates))
	for i, s := range candidates {
		pass2[i] = scored{s, ix.weightedDist(q.f5, s.f5, 8)}
	}
	sort.Slice(pass2, func(i, j int) bool { return pass2[i].d < pass2[j].d })
	keep := k * ix.opts.Refine
	if keep > len(pass2) {
		keep = len(pass2)
	}
	pass2 = pass2[:keep]

	// Step 3: final ranking on the 4-level vectors.
	final := make([]Match, len(pass2))
	for i, c := range pass2 {
		final[i] = Match{ID: c.s.id, Distance: ix.weightedDist(q.f4, c.s.f4, 16)}
	}
	sort.Slice(final, func(i, j int) bool {
		if final[i].Distance != final[j].Distance {
			return final[i].Distance < final[j].Distance
		}
		return final[i].ID < final[j].ID
	})
	if len(final) > k {
		final = final[:k]
	}
	return final, nil
}

// weightedDist computes the WBIIS weighted euclidean distance between two
// stacked per-channel s×s corner vectors: the coarsest quadrant (upper-left
// s/2×s/2) is weighted by LowWeight, detail coefficients by 1, and each
// channel by its ChannelWeights entry.
func (ix *Index) weightedDist(a, b []float64, s int) float64 {
	per := s * s
	half := s / 2
	total := 0.0
	for c := 0; c < 3; c++ {
		cw := ix.opts.ChannelWeights[c]
		base := c * per
		for r := 0; r < s; r++ {
			for col := 0; col < s; col++ {
				w := 1.0
				if r < half && col < half {
					w = ix.opts.LowWeight
				}
				d := a[base+r*s+col] - b[base+r*s+col]
				total += cw * w * d * d
			}
		}
	}
	return math.Sqrt(total)
}
