package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refHeuristics holds the insert heuristics as they were before
// ChooseSubtree stopped at the first zero overlap enlargement and the split
// folded its group MBRs from prefixes and suffixes: every candidate's
// overlap summed against every sibling, every group MBR folded afresh, and
// OverlapArea through math.Max and math.Min. The tests below hold the
// tree's heuristics to exactly these choices.
type refHeuristics struct {
	dim          int
	minEntries   int
	ua, ub       Rect
	byMin, byMax []Entry
	axisOrder    axisSorter
}

func newRefHeuristics(dim, minEntries int) *refHeuristics {
	return &refHeuristics{
		dim: dim, minEntries: minEntries,
		ua: Rect{Min: make([]float64, dim), Max: make([]float64, dim)},
		ub: Rect{Min: make([]float64, dim), Max: make([]float64, dim)},
	}
}

func refOverlapArea(r, o Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], o.Min[i])
		hi := math.Min(r.Max[i], o.Max[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

func (t *refHeuristics) chooseSubtree(n *Node, r Rect, level int) int {
	best := 0
	union := t.ua
	if level == 1 {
		// Children are leaves: minimize overlap enlargement.
		bestOverlap := math.Inf(1)
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i, e := range n.Entries {
			union.setUnion(e.Rect, r)
			var before, after float64
			for j, o := range n.Entries {
				if j == i {
					continue
				}
				before += refOverlapArea(e.Rect, o.Rect)
				after += refOverlapArea(union, o.Rect)
			}
			dOverlap := after - before
			area := e.Rect.Area()
			enl := union.Area() - area
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && enl < bestEnl) ||
				(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
				bestOverlap, bestEnl, bestArea, best = dOverlap, enl, area, i
			}
		}
		return best
	}
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.Entries {
		union.setUnion(e.Rect, r)
		area := e.Rect.Area()
		enl := union.Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			bestEnl, bestArea, best = enl, area, i
		}
	}
	return best
}

// split returns the two groups the split of entries makes, in order.
func (t *refHeuristics) split(entries []Entry) (first, second []Entry) {
	m := t.minEntries
	total := len(entries)
	r1, r2 := t.ua, t.ub

	bestAxis := 0
	bestAxisMargin := math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		t.sortAxis(entries, axis)
		marginSum := 0.0
		for _, sorted := range [2][]Entry{t.byMin, t.byMax} {
			for k := m; k <= total-m; k++ {
				r1.setMBR(sorted[:k])
				r2.setMBR(sorted[k:])
				marginSum += r1.Margin() + r2.Margin()
			}
		}
		if marginSum < bestAxisMargin {
			bestAxisMargin = marginSum
			bestAxis = axis
		}
	}

	t.sortAxis(entries, bestAxis)
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	var chosen []Entry
	chosenK := 0
	for _, sorted := range [2][]Entry{t.byMin, t.byMax} {
		for k := m; k <= total-m; k++ {
			r1.setMBR(sorted[:k])
			r2.setMBR(sorted[k:])
			ov := refOverlapArea(r1, r2)
			area := r1.Area() + r2.Area()
			if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea, chosen, chosenK = ov, area, sorted, k
			}
		}
	}
	return append([]Entry(nil), chosen[:chosenK]...), append([]Entry(nil), chosen[chosenK:]...)
}

func (t *refHeuristics) sortAxis(entries []Entry, axis int) {
	t.byMin = append(t.byMin[:0], entries...)
	t.byMax = append(t.byMax[:0], entries...)
	t.axisOrder = axisSorter{entries: t.byMin, axis: axis}
	sort.Sort(&t.axisOrder)
	t.axisOrder = axisSorter{entries: t.byMax, axis: axis, byMax: true}
	sort.Sort(&t.axisOrder)
}

// heuristicInputs draws n rectangles and a rectangle to insert, of one
// kind. All but "uniform" are tie-heavy: equal enlargements, equal areas
// and zero overlap enlargements on several candidates at once.
var heuristicInputs = []struct {
	name string
	draw func(rng *rand.Rand, dim, n int) (entries []Rect, r Rect)
}{
	{"uniform", func(rng *rand.Rand, dim, n int) ([]Rect, Rect) {
		out := make([]Rect, n)
		for i := range out {
			out[i] = randomRect(rng, dim)
		}
		return out, randomRect(rng, dim)
	}},
	// A few distinct rectangles, each repeated.
	{"duplicates", func(rng *rand.Rand, dim, n int) ([]Rect, Rect) {
		pool := make([]Rect, 1+rng.Intn(3))
		for i := range pool {
			pool[i] = randomRect(rng, dim)
		}
		out := make([]Rect, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(2) == 0 {
			return out, pool[rng.Intn(len(pool))]
		}
		return out, randomRect(rng, dim)
	}},
	// A point inside several entries, so several enlarge by 0.
	{"nested", func(rng *rand.Rand, dim, n int) ([]Rect, Rect) {
		p := make([]float64, dim)
		for d := range p {
			p[d] = 0.4 + 0.2*rng.Float64()
		}
		out := make([]Rect, n)
		for i := range out {
			if rng.Intn(3) == 0 {
				out[i] = randomRect(rng, dim)
				continue
			}
			lo, hi := make([]float64, dim), make([]float64, dim)
			for d := range lo {
				lo[d] = p[d] - 0.3*rng.Float64()
				hi[d] = p[d] + 0.3*rng.Float64()
			}
			out[i] = Rect{Min: lo, Max: hi}
		}
		return out, Point(p)
	}},
	// Quarter-grid bounds in [-1, 1] with zeros of both signs, mostly
	// zero-width axes, and repeats.
	{"grid", func(rng *rand.Rand, dim, n int) ([]Rect, Rect) {
		var out []Rect
		for len(out) < n {
			out = append(out, tiesRect(rng, dim, false, out))
		}
		return out, tiesRect(rng, dim, false, out)
	}},
	// Points and boxes flat on some axes: zero area everywhere.
	{"zeroarea", func(rng *rand.Rand, dim, n int) ([]Rect, Rect) {
		flat := func() Rect {
			r := randomRect(rng, dim)
			for d := range r.Min {
				if rng.Intn(2) == 0 {
					r.Max[d] = r.Min[d]
				}
			}
			return r
		}
		out := make([]Rect, n)
		for i := range out {
			out[i] = flat()
		}
		return out, flat()
	}},
}

func heuristicEntries(rects []Rect) []Entry {
	out := make([]Entry, len(rects))
	for i, r := range rects {
		out[i] = Entry{Rect: r, Child: NodeID(i + 1), Data: int64(i)}
	}
	return out
}

// TestChooseSubtreeMatchesReference: on randomized nodes, above the leaves
// and higher up, the tree descends into the child the reference picks.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	for _, maxE := range []int{4, 16, 19, 38} {
		for _, dim := range []int{2, 12} {
			for ki, in := range heuristicInputs {
				t.Run(fmt.Sprintf("M=%d/d=%d/%s", maxE, dim, in.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*maxE + 10*dim + ki)))
					tr := newMemTree(t, dim, maxE)
					ref := newRefHeuristics(dim, tr.innerMin)
					covering := 0 // level-1 winners that already contain r
					for trial := 0; trial < 300; trial++ {
						rects, r := in.draw(rng, dim, 2+rng.Intn(maxE-1))
						n := &Node{Entries: heuristicEntries(rects)}
						for _, level := range []int{1, 2} {
							want := ref.chooseSubtree(n, r, level)
							if got := tr.chooseSubtree(n, r, level); got != want {
								t.Fatalf("trial %d level %d: chose %d, reference %d", trial, level, got, want)
							}
							if level == 1 && n.Entries[want].Rect.Contains(r) {
								covering++
							}
						}
					}
					if in.name == "nested" && covering == 0 {
						t.Fatal("no trial chose a child already covering r")
					}
				})
			}
		}
	}
}

// TestSplitMatchesReference: an overflowing node of M+1 randomized entries
// splits into the reference's two groups, entry for entry, in order.
func TestSplitMatchesReference(t *testing.T) {
	sameEntries := func(a, b []Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Data != b[i].Data || a[i].Child != b[i].Child || !sameBits(a[i].Rect, b[i].Rect) {
				return false
			}
		}
		return true
	}
	for _, maxE := range []int{4, 16, 19, 38} {
		for _, dim := range []int{2, 12} {
			for ki, in := range heuristicInputs {
				t.Run(fmt.Sprintf("M=%d/d=%d/%s", maxE, dim, in.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*maxE + 10*dim + ki)))
					tr := newMemTree(t, dim, maxE)
					ref := newRefHeuristics(dim, tr.leafMin)
					for trial := 0; trial < 100; trial++ {
						rects, _ := in.draw(rng, dim, maxE+1)
						entries := heuristicEntries(rects)
						wantFirst, wantSecond := ref.split(entries)
						n, err := tr.store.New(trial%2 == 0)
						if err != nil {
							t.Fatal(err)
						}
						n.Entries = append([]Entry(nil), entries...)
						right, err := tr.splitNode(n)
						if err != nil {
							t.Fatal(err)
						}
						if !sameEntries(n.Entries, wantFirst) || !sameEntries(right.Entries, wantSecond) {
							t.Fatalf("trial %d: split into %d+%d entries unlike the reference's %d+%d",
								trial, len(n.Entries), len(right.Entries), len(wantFirst), len(wantSecond))
						}
					}
				})
			}
		}
	}
}

// sameBits reports whether a and b have the same bounds bit for bit.
func sameBits(a, b Rect) bool {
	for d := range a.Min {
		if math.Float64bits(a.Min[d]) != math.Float64bits(b.Min[d]) ||
			math.Float64bits(a.Max[d]) != math.Float64bits(b.Max[d]) {
			return false
		}
	}
	return true
}
