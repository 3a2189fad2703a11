package match

import (
	"math"

	"walrus/internal/region"
)

// scoreAssignment builds a one-to-one similar-region-pair set by solving a
// maximum-weight bipartite assignment (Hungarian algorithm, O(n³)) where a
// pair's weight is its standalone covered area. Overlap between chosen
// regions is what makes the true problem NP-hard (Theorem 5.1); ignoring
// it during selection yields a polynomial matcher that is optimal whenever
// regions do not overlap and a strong heuristic otherwise. The reported
// coverage is computed with real bitmap unions, so overlap never inflates
// the score.
func scoreAssignment(qRegions, tRegions []region.Region, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	// Compact the region indexes that actually occur in pairs.
	qIdx := map[int]int{}
	tIdx := map[int]int{}
	var qIDs, tIDs []int
	for _, p := range pairs {
		if _, ok := qIdx[p.Q]; !ok {
			qIdx[p.Q] = len(qIDs)
			qIDs = append(qIDs, p.Q)
		}
		if _, ok := tIdx[p.T]; !ok {
			tIdx[p.T] = len(tIDs)
			tIDs = append(tIDs, p.T)
		}
	}
	n, m := len(qIDs), len(tIDs)
	// The Hungarian routine wants rows <= cols; transpose if needed.
	transposed := n > m
	if transposed {
		n, m = m, n
	}
	weight := func(r, c int) float64 { return 0 }
	pairSet := make(map[[2]int]float64, len(pairs))
	for _, p := range pairs {
		w := float64(qRegions[p.Q].Bitmap.Fraction()*float64(qArea)) +
			float64(tRegions[p.T].Bitmap.Fraction()*float64(tArea))
		pairSet[[2]int{qIdx[p.Q], tIdx[p.T]}] = w
	}
	if transposed {
		weight = func(r, c int) float64 { return pairSet[[2]int{c, r}] }
	} else {
		weight = func(r, c int) float64 { return pairSet[[2]int{r, c}] }
	}

	// Minimize negated weights; absent pairs have weight 0 and thus never
	// beat a real pair for the same slot.
	cost := make([][]float64, n)
	for r := range cost {
		cost[r] = make([]float64, m)
		for c := range cost[r] {
			cost[r][c] = -weight(r, c)
		}
	}
	rowMatch := hungarian(cost)

	k := qRegions[pairs[0].Q].Bitmap.K
	uq := region.NewBitmap(k)
	ut := region.NewBitmap(k)
	var chosen []Pair
	for r, c := range rowMatch {
		if c < 0 {
			continue
		}
		qi, ti := r, c
		if transposed {
			qi, ti = c, r
		}
		if _, real := pairSet[[2]int{qi, ti}]; !real {
			continue
		}
		p := Pair{Q: qIDs[qi], T: tIDs[ti]}
		chosen = append(chosen, p)
		uq.UnionWith(qRegions[p.Q].Bitmap)
		ut.UnionWith(tRegions[p.T].Bitmap)
	}
	return Result{
		Pairs:    chosen,
		CoveredQ: uq.Fraction() * float64(qArea),
		CoveredT: ut.Fraction() * float64(tArea),
	}
}

// hungarian solves the min-cost assignment problem for an n×m cost matrix
// with n <= m, returning the matched column for each row. It is the
// classic O(n²m) potential-based formulation.
func hungarian(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	m := len(cost[0])
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)   // p[j] = row matched to column j (1-based; 0 = free)
	way := make([]int, m+1) // way[j] = previous column on the augmenting path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
		}
	}
	return out
}
