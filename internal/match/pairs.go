// Pair enumeration without an index: the brute-force counterparts of the
// R*-tree probe, used by tests and small-scale search. These live outside
// match.go so they stay off the lint-hot scoring path — they run once per
// query pair-set at most, not per candidate image.
package match

import (
	"math"

	"walrus/internal/region"
)

// PairsWithin computes the matching region pairs between two region sets
// directly (without an index): centroids within euclidean distance eps.
// The WALRUS database uses the R*-tree for this; PairsWithin is the
// reference implementation used by tests and small-scale search.
func PairsWithin(qRegions, tRegions []region.Region, eps float64) []Pair {
	var out []Pair
	for qi, q := range qRegions {
		for ti, t := range tRegions {
			if euclid(q.Signature, t.Signature) <= eps {
				out = append(out, Pair{qi, ti})
			}
		}
	}
	return out
}

// PairsWithinBBox computes matching pairs under the bounding-box signature
// model: region signatures are boxes, and two regions match when one box
// expanded by eps intersects the other (Definition 4.1's bounding-box
// reading).
func PairsWithinBBox(qRegions, tRegions []region.Region, eps float64) []Pair {
	var out []Pair
	for qi, q := range qRegions {
		for ti, t := range tRegions {
			if boxesWithin(q.Min, q.Max, t.Min, t.Max, eps) {
				out = append(out, Pair{qi, ti})
			}
		}
	}
	return out
}

func boxesWithin(aMin, aMax, bMin, bMax []float64, eps float64) bool {
	for i := range aMin {
		if aMin[i]-eps > bMax[i] || bMin[i]-eps > aMax[i] {
			return false
		}
	}
	return true
}

// euclid is the euclidean distance the matching rule of §5 compares
// with ε. The explicit float64 conversion rounds each square on its own,
// so no architecture fuses it into the sum (the Go spec allows fusing
// x*y + z otherwise): the index's ball test sums the same way.
func euclid(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += float64(diff * diff)
	}
	return math.Sqrt(d)
}
