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
// the images' pixel areas. It checks its input — positive areas, every
// pair in range, every paired region's bitmap on one grid with that
// grid's word count — and then scores with ScoreTrusted's kernel, reading
// each paired region's bitmap where it lies, with no copy.
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
		if !OnGrid(qRegions[p.Q].Bitmap, k) || !OnGrid(tRegions[p.T].Bitmap, k) {
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
		qb, tb := qRegions[p.Q].Bitmap, tRegions[p.T].Bitmap
		return Result{}, fmt.Errorf("match: bitmap grids differ across regions (grid %d; query K %d with %d words, target K %d with %d words)",
			k, qb.K, len(qb.Words), tb.K, len(tb.Words))
	}
	k = max(k, 0) // with no pairs no bitmap is read
	words := (k*k + 63) / 64
	return score(bitmaps{regions: qRegions, k: k, words: words}, bitmaps{regions: tRegions, k: k, words: words}, pairs, qArea, tArea, opts)
}

// Flatten lays out the regions' k×k bitmaps one after another, each in
// its grid's word count: the layout ScoreTrusted reads. A bitmap on
// another grid leaves its words zero or cut short.
func Flatten(regions []region.Region, k int) []uint64 {
	words := (k*k + 63) / 64
	out := make([]uint64, len(regions)*words)
	for i := range regions {
		copy(out[i*words:(i+1)*words], regions[i].Bitmap.Words)
	}
	return out
}

// OnGrid reports whether b is a bitmap of the k×k grid: its K is k and it
// has the grid's word count.
func OnGrid(b region.Bitmap, k int) bool {
	return b.K == k && len(b.Words) == (k*k+63)/64
}

// ScoreTrusted is Score on flat bitmaps and without its checks. qBits and
// tBits hold each side's k×k region bitmaps one after another, each in
// ⌈k²/64⌉ words, indexed by the pairs' region numbers. The caller's inputs
// must already hold Score's checks: positive areas and every pair in
// range. A database lays its catalog out this way, checks its regions'
// grid once, where they enter the catalog, and holds its pairs in range
// by construction. Inputs that break the contract may panic or score
// wrongly.
func ScoreTrusted(qBits, tBits []uint64, k int, pairs []Pair, qArea, tArea int, opts Options) (Result, error) {
	words := (k*k + 63) / 64
	return score(bitmaps{flat: qBits, k: k, words: words}, bitmaps{flat: tBits, k: k, words: words}, pairs, qArea, tArea, opts)
}

// score is the one scoring kernel behind Score and ScoreTrusted.
func score(q, t bitmaps, pairs []Pair, qArea, tArea int, opts Options) (Result, error) {
	var res Result
	switch opts.Algorithm {
	case Quick:
		if len(pairs) > 0 {
			cq, ct := quickCover(q, t, pairs)
			res.CoveredQ, res.CoveredT = covered(cq, q.k, qArea), covered(ct, q.k, tArea)
		}
	case Greedy:
		res = scoreGreedy(q, t, pairs, qArea, tArea)
	case Exact:
		res = scoreExact(q, t, pairs, qArea, tArea)
	case Assignment:
		res = scoreAssignment(q, t, pairs, qArea, tArea)
	default:
		return Result{}, fmt.Errorf("match: unknown algorithm %v", opts.Algorithm)
	}
	res.Similarity = normalize(res.CoveredQ, res.CoveredT, qArea, tArea, opts.Denominator)
	return res, nil
}

// bitmaps is one side's k×k region bitmaps, words per bitmap: laid out
// flat (ScoreTrusted), or in the regions Score checked when regions is
// non-nil.
type bitmaps struct {
	flat     []uint64
	regions  []region.Region
	k, words int
}

// wordsOf returns region i's bitmap words, aliasing the caller's data.
func (f bitmaps) wordsOf(i int) []uint64 {
	if f.regions != nil {
		return f.regions[i].Bitmap.Words
	}
	return f.flat[i*f.words : (i+1)*f.words : (i+1)*f.words]
}

// at returns region i's bitmap, aliasing the caller's data.
func (f bitmaps) at(i int) region.Bitmap {
	return region.Bitmap{K: f.k, Words: f.wordsOf(i)}
}

// fraction is region i's Bitmap.Fraction.
func (f bitmaps) fraction(i int) float64 {
	b := f.at(i)
	return b.Fraction()
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

// covered is the pixel area of an image of the given area that count
// cells of its k×k grid cover: Bitmap.Fraction times the area, rounded
// before any sum it enters (Go may otherwise fuse x*y + z).
func covered(count, k, area int) float64 {
	if k == 0 {
		return 0
	}
	return float64(float64(count) / float64(k*k) * float64(area))
}

// quickStackWords is the bitmap size quickCover keeps on the stack: 256
// cells, a 16×16 grid — the default. Larger grids fall back to the heap.
const quickStackWords = 4

// quickCover is the quick matcher's core: it unions the bitmap words of
// every matched region per side, words per bitmap, and returns the number
// of cells each union covers. A query region repeated by consecutive pairs
// is unioned once; every other pair unions both of its regions, since a
// union is idempotent and checking for repeats costs more than the
// union. The result is exact for pairs in any order.
func quickCover(q, t bitmaps, pairs []Pair) (countQ, countT int) {
	words := q.words
	var uqStack, utStack [quickStackWords]uint64
	uq, ut := uqStack[:], utStack[:]
	if words > quickStackWords {
		uq, ut = make([]uint64, words), make([]uint64, words)
	}
	uq, ut = uq[:words], ut[:words]
	prevQ := -1
	for _, p := range pairs {
		if p.Q != prevQ {
			prevQ = p.Q
			orWords(uq, q.wordsOf(p.Q))
		}
		orWords(ut, t.wordsOf(p.T))
	}
	for i := range uq {
		countQ += bits.OnesCount64(uq[i])
		countT += bits.OnesCount64(ut[i])
	}
	return countQ, countT
}

// orWords ORs src into dst, which is no longer than src.
func orWords(dst, src []uint64) {
	src = src[:len(dst)]
	for i, w := range src {
		dst[i] |= w
	}
}

// scoreGreedy repeatedly adds the unused pair with the largest marginal
// covered area (measured in pixels across both images). Each iteration
// scans all remaining pairs, so the cost is O(n²) scans of constant-size
// bitmaps for n matching pairs.
func scoreGreedy(q, t bitmaps, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	k := q.k
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
			gain := marginalGain(&uq, q.at(p.Q), qArea) +
				marginalGain(&ut, t.at(p.T), tArea)
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
		uq.UnionWith(q.at(p.Q))
		ut.UnionWith(t.at(p.T))
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

// marginalGain returns the pixel area that ORing bm into u would add,
// rounded before any sum it enters (Go may otherwise fuse x*y + z).
func marginalGain(u *region.Bitmap, bm region.Bitmap, imgArea int) float64 {
	added := 0
	for i, w := range bm.Words {
		added += bits.OnesCount64(w &^ u.Words[i])
	}
	return covered(added, u.K, imgArea)
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
func scoreExact(q, t bitmaps, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	k := q.k

	// Precompute per-pair standalone gains for the bound, sorted
	// descending so prefixes give the strongest bound.
	type scoredPair struct {
		p    Pair
		solo float64
	}
	sp := make([]scoredPair, len(pairs))
	for i, p := range pairs {
		sp[i] = scoredPair{p,
			float64(q.fraction(p.Q)*float64(qArea)) +
				float64(t.fraction(p.T)*float64(tArea))}
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
	best := scoreGreedy(q, t, pairs, qArea, tArea)
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
			gq := marginalGain(&uq, q.at(p.Q), qArea)
			gt := marginalGain(&ut, t.at(p.T), tArea)
			usedQ[p.Q], usedT[p.T] = true, true
			uq.UnionWith(q.at(p.Q))
			ut.UnionWith(t.at(p.T))
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
