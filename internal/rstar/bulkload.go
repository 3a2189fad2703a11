package rstar

import (
	"fmt"
	"math"
	"sort"
)

// BulkLoad builds a tree over the given rectangles and payloads by
// variance-split packing (see varianceSplit): each level is cut
// recursively along the axis where the data spreads most, so every node is
// full but the last two of a level and leaves are shaped by the data
// rather than by the axis order. The result is ceil(n/M) leaves, M the
// leaf capacity (inner levels pack at the inner capacity), in
// O(n log² n) — much faster than n individual inserts and with
// better-clustered leaves. The store must be freshly created; existing
// metadata is overwritten.
func BulkLoad(s NodeStore, rects []Rect, data []int64) (*Tree, error) {
	if len(rects) != len(data) {
		return nil, fmt.Errorf("rstar: BulkLoad got %d rects and %d payloads", len(rects), len(data))
	}
	t := newTree(s)
	for _, r := range rects {
		if r.Dim() != t.dim {
			return nil, fmt.Errorf("rstar: BulkLoad rect has dim %d, store has %d", r.Dim(), t.dim)
		}
	}
	entries := make([]Entry, len(rects))
	for i := range rects {
		entries[i] = Entry{Rect: rects[i].Clone(), Data: data[i]}
	}

	// Pack the leaf level, then repeatedly pack the summaries until a
	// single root remains.
	level := entries
	leaf := true
	height := 0
	var rootID NodeID
	for {
		height++
		if height > 64 {
			return nil, fmt.Errorf("rstar: BulkLoad failed to converge")
		}
		if len(level) == 0 {
			// Empty input: a single empty leaf root.
			n, err := s.New(true)
			if err != nil {
				return nil, err
			}
			if err := s.Put(n); err != nil {
				return nil, err
			}
			rootID = n.ID
			break
		}
		groups := varianceSplit(nil, level, t.maxEntries(leaf))
		next := make([]Entry, 0, len(groups))
		for _, g := range groups {
			n, err := s.New(leaf)
			if err != nil {
				return nil, err
			}
			n.Entries = g
			if err := s.Put(n); err != nil {
				return nil, err
			}
			next = append(next, Entry{Rect: n.mbr(), Child: n.ID})
		}
		if len(next) == 1 {
			rootID = next[0].Child
			break
		}
		level = next
		leaf = false
	}
	t.root = rootID
	t.height = height
	t.size = len(rects)
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// varianceSplit appends to out a partition of entries into
// ceil(len/cap) groups of at most cap entries, the VAMSplit packing of
// White & Jain ("Similarity Indexing: Algorithms and Performance", SPIE
// 1996): sort the entries by centre along the axis on which their centres
// vary most, cut at a multiple of cap, and recurse into both sides. The
// cut puts the remainder on the high side, so every group is full except
// the last two, which share the remainder evenly and so hold at least
// half of cap each — packed nodes respect the minimum-fill invariant.
func varianceSplit(out [][]Entry, entries []Entry, cap int) [][]Entry {
	groups := ceilDiv(len(entries), cap)
	if groups <= 1 {
		return append(out, entries)
	}
	k := groups / 2 * cap
	if groups == 2 {
		// The last two groups: halve, so neither falls below half of cap.
		k = len(entries) / 2
	}
	sortByCenter(entries, widestAxis(entries))
	out = varianceSplit(out, entries[:k:k], cap)
	return varianceSplit(out, entries[k:], cap)
}

// widestAxis returns the axis along which the entries' centres have the
// largest variance, the first such axis on ties.
func widestAxis(entries []Entry) int {
	dims := len(entries[0].Rect.Min)
	sum, sumSq := make([]float64, dims), make([]float64, dims)
	for _, e := range entries {
		for axis := range sum {
			c := e.Rect.Min[axis] + e.Rect.Max[axis]
			sum[axis] += c
			sumSq[axis] += c * c
		}
	}
	best, bestVar := 0, math.Inf(-1)
	for axis := range sum {
		// n times the variance: only the order across axes matters.
		if v := sumSq[axis] - sum[axis]*sum[axis]/float64(len(entries)); v > bestVar {
			best, bestVar = axis, v
		}
	}
	return best
}

func sortByCenter(entries []Entry, axis int) {
	sort.Slice(entries, func(i, j int) bool {
		ci := entries[i].Rect.Min[axis] + entries[i].Rect.Max[axis]
		cj := entries[j].Rect.Min[axis] + entries[j].Rect.Max[axis]
		return ci < cj
	})
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
