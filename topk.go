package walrus

import (
	"slices"
	"strings"
)

// compareMatches is the ranking order: decreasing similarity, ties by
// increasing id. Ids are unique within a snapshot and disjoint across
// shards, so the order is strict and a ranking has exactly one correct
// answer.
func compareMatches(a, b Match) int {
	if a.Similarity != b.Similarity {
		if a.Similarity > b.Similarity {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// topK keeps the best limit matches offered to it (every match when
// limit <= 0). With a limit it is a bounded binary heap holding the
// worst kept match at the root, so an offer that misses the cut costs
// one comparison.
type topK struct {
	limit int
	heap  []Match
}

// newTopK sizes a selection for at most n offers.
func newTopK(limit, n int) topK {
	size := n
	if limit > 0 && limit < n {
		size = limit
	}
	return topK{limit: limit, heap: make([]Match, 0, size)}
}

func (t *topK) offer(m Match) {
	if t.limit <= 0 {
		t.heap = append(t.heap, m)
		return
	}
	if len(t.heap) < t.limit {
		t.heap = append(t.heap, m)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if t.misses(m.Similarity, m.ID) {
		return
	}
	t.heap[0] = m
	t.siftDown(0)
}

// misses reports whether offering a match of similarity sim and id id
// would leave the selection as it is: it is full and the match ranks at
// or below its worst kept one (compareMatches >= 0, without building the
// Match).
func (t *topK) misses(sim float64, id string) bool {
	if t.limit <= 0 || len(t.heap) < t.limit {
		return false
	}
	w := &t.heap[0]
	return !(sim > w.Similarity) && (sim != w.Similarity || id >= w.ID)
}

// siftUp moves entry i toward the root while it ranks below its parent.
func (t *topK) siftUp(i int) {
	h := t.heap
	for i > 0 {
		parent := (i - 1) / 2
		if compareMatches(h[parent], h[i]) > 0 {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown moves entry i away from the root while a child ranks below it.
func (t *topK) siftDown(i int) {
	h := t.heap
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && compareMatches(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the kept matches best first, in a slice whose capacity
// is its length: a ranking that outlives the query (returned, cached)
// pins no room for candidates that missed the cut.
func (t *topK) sorted() []Match {
	slices.SortFunc(t.heap, compareMatches)
	if len(t.heap) == cap(t.heap) {
		return t.heap
	}
	out := make([]Match, len(t.heap))
	copy(out, t.heap)
	return out
}
