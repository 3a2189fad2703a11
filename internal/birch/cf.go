// Package birch implements the pre-clustering phase of the BIRCH
// clustering algorithm (Zhang, Ramakrishnan, Livny, SIGMOD 1996), which
// WALRUS uses to group sliding-window signatures into image regions
// (Section 5.3 of the paper). It builds a CF-tree under a threshold εc on
// the cluster radius in a single linear pass over the points; each leaf
// entry of the tree is one cluster.
//
// Beyond the paper's needs, leaf entries also track the member point ids
// (so WALRUS can build region bitmaps) and the elementwise bounding box of
// member points (so regions can use bounding-box signatures instead of
// centroids, the alternative Section 4 describes).
package birch

import (
	"fmt"
	"math"
)

// CF is a clustering feature: the sufficient statistics (N, LS, SS) of a
// set of points, where LS is the elementwise linear sum and SS the scalar
// sum of squared norms. CFs are additive, which is what makes the CF-tree
// maintainable incrementally.
type CF struct {
	N  int
	LS []float64
	SS float64
}

// NewCF returns an empty CF of the given dimensionality.
func NewCF(dim int) CF { return CF{LS: make([]float64, dim)} }

// Dim returns the dimensionality.
func (cf *CF) Dim() int { return len(cf.LS) }

// Add incorporates a single point.
func (cf *CF) Add(p []float64) {
	cf.N++
	for i, v := range p {
		cf.LS[i] += v
		cf.SS += float64(v * v)
	}
}

// Merge incorporates another CF.
func (cf *CF) Merge(o *CF) {
	cf.N += o.N
	for i, v := range o.LS {
		cf.LS[i] += v
	}
	cf.SS += o.SS
}

// Clone returns a deep copy.
func (cf *CF) Clone() CF {
	out := CF{N: cf.N, SS: cf.SS, LS: make([]float64, len(cf.LS))}
	copy(out.LS, cf.LS)
	return out
}

// Centroid returns LS/N, or the zero vector for an empty CF.
func (cf *CF) Centroid() []float64 {
	c := make([]float64, len(cf.LS))
	if cf.N == 0 {
		return c
	}
	for i, v := range cf.LS {
		c[i] = v / float64(cf.N)
	}
	return c
}

// Radius returns the BIRCH radius: the root-mean-square distance of the
// member points from the centroid, sqrt(SS/N - |LS/N|²).
func (cf *CF) Radius() float64 {
	if cf.N == 0 {
		return 0
	}
	n := float64(cf.N)
	var c2 float64
	for _, v := range cf.LS {
		m := v / n
		c2 += float64(m * m)
	}
	r2 := cf.SS/n - c2
	if r2 < 0 { // numeric noise
		return 0
	}
	return math.Sqrt(r2)
}

// mergedRadius returns the radius the union of a and b would have, without
// materializing the merge.
func mergedRadius(a, b *CF) float64 {
	n := float64(a.N + b.N)
	if n == 0 {
		return 0
	}
	var c2 float64
	for i := range a.LS {
		m := (a.LS[i] + b.LS[i]) / n
		c2 += float64(m * m)
	}
	r2 := (a.SS+b.SS)/n - c2
	if r2 < 0 {
		return 0
	}
	return math.Sqrt(r2)
}

// centroidDist2 returns the squared euclidean distance between the
// centroids of a and b.
func centroidDist2(a, b *CF) float64 {
	na, nb := float64(a.N), float64(b.N)
	if na == 0 || nb == 0 {
		return 0
	}
	var d2 float64
	for i := range a.LS {
		d := a.LS[i]/na - b.LS[i]/nb
		d2 += float64(d * d)
	}
	return d2
}

func (cf *CF) String() string {
	return fmt.Sprintf("CF(n=%d, r=%.4f)", cf.N, cf.Radius())
}
