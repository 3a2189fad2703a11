// Package match implements WALRUS's region- and image-matching steps
// (Sections 5.4–5.5). Given the matching region pairs between a query
// image Q and a target image T, it computes the similarity of Definition
// 4.3 — the fraction of the two images' combined area covered by matching
// regions — with three algorithms:
//
//   - Quick: union the bitmaps of every matched region on each side. This
//     relaxes the one-to-one requirement of Definition 4.2 and runs in
//     linear time; it is the variant the paper used for its retrieval
//     experiments (Section 6.4).
//   - Greedy: the paper's heuristic for the strict similar-region-pair
//     set — iteratively pick the pair of unused regions that adds the most
//     covered area.
//   - Exact: optimal one-to-one pair set by branch and bound. Computing it
//     is NP-hard (Theorem 5.1), so this is exponential and intended for
//     small instances — it validates the greedy heuristic in tests and
//     benches.
//
//walrus:lint-hot scoring runs per candidate image on the query path
package match

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"walrus/internal/region"
)

// Pair links a query region index to a target region index.
type Pair struct {
	Q, T int
}

// Algorithm selects how the similar region pair set is computed.
type Algorithm int

const (
	// Quick unions all matched regions without the one-to-one restriction.
	Quick Algorithm = iota
	// Greedy builds a one-to-one pair set by repeatedly taking the pair
	// with maximum marginal covered area.
	Greedy
	// Exact finds the optimal one-to-one pair set (exponential time).
	Exact
	// Assignment solves the maximum-weight bipartite assignment over the
	// pairs' standalone covered areas with the Hungarian algorithm — the
	// optimal one-to-one pair set under a no-overlap relaxation, in
	// polynomial time.
	Assignment
)

func (a Algorithm) String() string {
	switch a {
	case Quick:
		return "quick"
	case Greedy:
		return "greedy"
	case Exact:
		return "exact"
	case Assignment:
		return "assignment"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Denominator selects the similarity normalization of Section 4.
type Denominator int

const (
	// SumAreas uses area(Q)+area(T), Definition 4.3's denominator.
	SumAreas Denominator = iota
	// QueryOnly measures only the covered fraction of the query image.
	QueryOnly
	// TwiceSmaller uses twice the area of the smaller image, the variant
	// suggested for images of very different sizes.
	TwiceSmaller
)

// Options configures scoring.
type Options struct {
	Algorithm   Algorithm
	Denominator Denominator
}

// Result reports a similarity computation.
type Result struct {
	// Similarity is the matched-area fraction under the chosen
	// denominator, in [0,1].
	Similarity float64
	// Pairs is the similar region pair set used (nil for Quick, which does
	// not build one).
	Pairs []Pair
	// CoveredQ and CoveredT are the covered pixel counts on each side.
	CoveredQ, CoveredT float64
}

// Score computes the similarity between a query and a target image from
// their regions and the list of matching region pairs. qArea and tArea are
// the images' pixel areas.
func Score(qRegions, tRegions []region.Region, pairs []Pair, qArea, tArea int, opts Options) (Result, error) {
	if qArea <= 0 || tArea <= 0 {
		return Result{}, fmt.Errorf("match: non-positive image areas %d, %d", qArea, tArea)
	}
	// The validation loop only records the first offending pair; the
	// error itself is built after the loop so the per-pair body stays
	// allocation-free (fmt.Errorf boxes its int arguments).
	k := -1
	bad := -1
	for i, p := range pairs {
		if p.Q < 0 || p.Q >= len(qRegions) || p.T < 0 || p.T >= len(tRegions) {
			bad = i
			break
		}
		if k == -1 {
			k = qRegions[p.Q].Bitmap.K
		}
		if qRegions[p.Q].Bitmap.K != k || tRegions[p.T].Bitmap.K != k {
			bad = i
			break
		}
	}
	if bad >= 0 {
		p := pairs[bad]
		if p.Q < 0 || p.Q >= len(qRegions) || p.T < 0 || p.T >= len(tRegions) {
			return Result{}, fmt.Errorf("match: pair (%d,%d) out of range (%d query, %d target regions)",
				p.Q, p.T, len(qRegions), len(tRegions))
		}
		return Result{}, fmt.Errorf("match: bitmap grids differ across regions (%d vs %d/%d)",
			k, qRegions[p.Q].Bitmap.K, tRegions[p.T].Bitmap.K)
	}
	var res Result
	switch opts.Algorithm {
	case Quick:
		res = scoreQuick(qRegions, tRegions, pairs, qArea, tArea)
	case Greedy:
		res = scoreGreedy(qRegions, tRegions, pairs, qArea, tArea)
	case Exact:
		res = scoreExact(qRegions, tRegions, pairs, qArea, tArea)
	case Assignment:
		res = scoreAssignment(qRegions, tRegions, pairs, qArea, tArea)
	default:
		return Result{}, fmt.Errorf("match: unknown algorithm %v", opts.Algorithm)
	}
	res.Similarity = normalize(res.CoveredQ, res.CoveredT, qArea, tArea, opts.Denominator)
	return res, nil
}

func normalize(coveredQ, coveredT float64, qArea, tArea int, d Denominator) float64 {
	switch d {
	case QueryOnly:
		return coveredQ / float64(qArea)
	case TwiceSmaller:
		smaller := math.Min(float64(qArea), float64(tArea))
		return math.Min(1, (coveredQ+coveredT)/(2*smaller))
	default:
		return (coveredQ + coveredT) / float64(qArea+tArea)
	}
}

// quickStackWords is the bitmap (and target set) size scoreQuick keeps
// on the stack: 256 bits, a 16×16 grid — the default — or 256 target
// regions. Larger grids and region counts fall back to the heap.
const quickStackWords = 4

// scoreQuick unions every matched region's bitmap per side. A region
// matched by several pairs is unioned once where that is cheap to see —
// a query region repeated by consecutive pairs, a target region already
// in the seen set — but a union is idempotent, so the result is exact
// for pairs in any order.
func scoreQuick(qRegions, tRegions []region.Region, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	k := qRegions[pairs[0].Q].Bitmap.K
	var uqStack, utStack, seenStack [quickStackWords]uint64
	uq := region.Bitmap{K: k, Words: uqStack[:]}
	ut := region.Bitmap{K: k, Words: utStack[:]}
	if words := (k*k + 63) / 64; words > quickStackWords {
		uq.Words, ut.Words = make([]uint64, words), make([]uint64, words)
	} else {
		uq.Words, ut.Words = uq.Words[:words], ut.Words[:words]
	}
	seenT := seenStack[:]
	if words := (len(tRegions) + 63) / 64; words > quickStackWords {
		seenT = make([]uint64, words)
	}
	prevQ := -1
	for _, p := range pairs {
		if p.Q != prevQ {
			prevQ = p.Q
			uq.UnionWith(qRegions[p.Q].Bitmap)
		}
		if bit := uint64(1) << (p.T % 64); seenT[p.T/64]&bit == 0 {
			seenT[p.T/64] |= bit
			ut.UnionWith(tRegions[p.T].Bitmap)
		}
	}
	return Result{
		CoveredQ: uq.Fraction() * float64(qArea),
		CoveredT: ut.Fraction() * float64(tArea),
	}
}

// scoreGreedy repeatedly adds the unused pair with the largest marginal
// covered area (measured in pixels across both images). Each iteration
// scans all remaining pairs, so the cost is O(n²) scans of constant-size
// bitmaps for n matching pairs.
func scoreGreedy(qRegions, tRegions []region.Region, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	k := qRegions[pairs[0].Q].Bitmap.K
	uq := region.NewBitmap(k)
	ut := region.NewBitmap(k)
	usedQ := make(map[int]bool)
	usedT := make(map[int]bool)
	remaining := append([]Pair(nil), pairs...)
	// chosen is written by index so the selection loop never reallocates;
	// at most len(pairs) pairs can be picked.
	chosen := make([]Pair, len(pairs))
	nChosen := 0
	for len(remaining) > 0 {
		bestGain := 0.0
		bestIdx := -1
		for i, p := range remaining {
			if usedQ[p.Q] || usedT[p.T] {
				continue
			}
			gain := marginalGain(&uq, qRegions[p.Q].Bitmap, qArea) +
				marginalGain(&ut, tRegions[p.T].Bitmap, tArea)
			if gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		p := remaining[bestIdx]
		usedQ[p.Q] = true
		usedT[p.T] = true
		uq.UnionWith(qRegions[p.Q].Bitmap)
		ut.UnionWith(tRegions[p.T].Bitmap)
		chosen[nChosen] = p
		nChosen++
		copy(remaining[bestIdx:], remaining[bestIdx+1:])
		remaining = remaining[:len(remaining)-1]
	}
	var picked []Pair // nil, not empty, when nothing matched
	if nChosen > 0 {
		picked = chosen[:nChosen]
	}
	return Result{
		Pairs:    picked,
		CoveredQ: uq.Fraction() * float64(qArea),
		CoveredT: ut.Fraction() * float64(tArea),
	}
}

// marginalGain returns the pixel area that ORing bm into u would add.
func marginalGain(u *region.Bitmap, bm region.Bitmap, imgArea int) float64 {
	added := 0
	for i, w := range bm.Words {
		added += bits.OnesCount64(w &^ u.Words[i])
	}
	return float64(added) / float64(u.K*u.K) * float64(imgArea)
}

// ExactPairLimit bounds the branch-and-bound search space of the Exact
// matcher. Instances with at most this many pairs are solved optimally;
// larger instances are solved optimally over the ExactPairLimit pairs with
// the largest standalone coverage, seeded with the full greedy solution so
// the result is never worse than Greedy.
const ExactPairLimit = 18

// scoreExact finds the one-to-one pair set with maximum covered area by
// depth-first branch and bound over the pair list (Theorem 5.1 shows the
// problem is NP-hard, so this is exponential). See ExactPairLimit for how
// large instances are handled.
func scoreExact(qRegions, tRegions []region.Region, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	k := qRegions[pairs[0].Q].Bitmap.K

	// Precompute per-pair standalone gains for the bound, sorted
	// descending so prefixes give the strongest bound.
	type scoredPair struct {
		p    Pair
		solo float64
	}
	sp := make([]scoredPair, len(pairs))
	for i, p := range pairs {
		sp[i] = scoredPair{p,
			qRegions[p.Q].Bitmap.Fraction()*float64(qArea) +
				tRegions[p.T].Bitmap.Fraction()*float64(tArea)}
	}
	sort.Slice(sp, func(i, j int) bool { return sp[i].solo > sp[j].solo })
	if len(sp) > ExactPairLimit {
		sp = sp[:ExactPairLimit]
	}
	suffix := make([]float64, len(sp)+1)
	for i := len(sp) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + sp[i].solo
	}

	// Seed with the greedy solution over the full pair list: the search can
	// only improve on it, which both strengthens the bound and guarantees
	// Exact >= Greedy even when the pair list was truncated.
	best := scoreGreedy(qRegions, tRegions, pairs, qArea, tArea)
	bestScore := best.CoveredQ + best.CoveredT
	usedQ := make(map[int]bool)
	usedT := make(map[int]bool)
	uq := region.NewBitmap(k)
	ut := region.NewBitmap(k)
	var current []Pair

	var dfs func(i int, covQ, covT float64)
	dfs = func(i int, covQ, covT float64) {
		if covQ+covT > bestScore {
			bestScore = covQ + covT
			best = Result{
				Pairs:    append([]Pair(nil), current...),
				CoveredQ: covQ,
				CoveredT: covT,
			}
		}
		if i == len(sp) || covQ+covT+suffix[i] <= bestScore {
			return
		}
		// Branch 1: take pair i if both sides are unused.
		p := sp[i].p
		if !usedQ[p.Q] && !usedT[p.T] {
			savedQ := uq.Clone()
			savedT := ut.Clone()
			gq := marginalGain(&uq, qRegions[p.Q].Bitmap, qArea)
			gt := marginalGain(&ut, tRegions[p.T].Bitmap, tArea)
			usedQ[p.Q], usedT[p.T] = true, true
			uq.UnionWith(qRegions[p.Q].Bitmap)
			ut.UnionWith(tRegions[p.T].Bitmap)
			current = append(current, p)
			dfs(i+1, covQ+gq, covT+gt)
			current = current[:len(current)-1]
			usedQ[p.Q], usedT[p.T] = false, false
			uq, ut = savedQ, savedT
		}
		// Branch 2: skip pair i.
		dfs(i+1, covQ, covT)
	}
	dfs(0, 0, 0)
	return best
}
