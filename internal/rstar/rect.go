// Package rstar implements a d-dimensional R*-tree (Beckmann, Kriegel,
// Schneider, Seeger, SIGMOD 1990): insertion with forced reinsertion,
// margin-driven node splits, overlap and ε-ball queries, and deletion
// with tree condensation. WALRUS stores one entry per
// image region, keyed by the region's signature point or signature
// bounding box (Section 5.3/5.4 of the paper), and probes the tree with
// query rectangles extended by the matching epsilon.
//
// Nodes live behind the NodeStore interface, with an in-memory
// implementation and a disk-backed one built on package store, making the
// index genuinely disk-based as in the paper. Both keep every node as a
// page in one layout (page.go), and one kernel scans them in place.
package rstar

import "fmt"

// Rect is a d-dimensional axis-aligned rectangle. A point is a rectangle
// with Min == Max.
type Rect struct {
	Min, Max []float64
}

// NewRect copies lo and hi into a Rect, validating lo[i] <= hi[i].
func NewRect(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("rstar: rect corners have dims %d and %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return Rect{}, fmt.Errorf("rstar: zero-dimensional rect")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("rstar: min %v > max %v on dim %d", lo[i], hi[i], i)
		}
	}
	r := Rect{Min: make([]float64, len(lo)), Max: make([]float64, len(hi))}
	copy(r.Min, lo)
	copy(r.Max, hi)
	return r, nil
}

// Point returns the degenerate rectangle at p.
func Point(p []float64) Rect {
	r := Rect{Min: make([]float64, len(p)), Max: make([]float64, len(p))}
	copy(r.Min, p)
	copy(r.Max, p)
	return r
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	out := Rect{Min: make([]float64, len(r.Min)), Max: make([]float64, len(r.Max))}
	copy(out.Min, r.Min)
	copy(out.Max, r.Max)
	return out
}

// Area returns the d-dimensional volume.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of edge lengths (the R* split criterion).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Contains reports whether o lies entirely within r.
func (r Rect) Contains(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Equal reports exact equality.
func (r Rect) Equal(o Rect) bool {
	if len(r.Min) != len(o.Min) {
		return false
	}
	for i := range r.Min {
		if r.Min[i] != o.Min[i] || r.Max[i] != o.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle containing r and o.
func (r Rect) Union(o Rect) Rect {
	out := r.Clone()
	out.extend(o)
	return out
}

// extend grows r's bounds in place to cover o. Every union in the package
// goes through it, so in-place and allocating unions compare alike.
func (r Rect) extend(o Rect) {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
}

// setUnion overwrites r's bounds with a.Union(b) without allocating. r
// must have the same dimension and share no bounds with a or b.
func (r Rect) setUnion(a, b Rect) {
	copy(r.Min, a.Min)
	copy(r.Max, a.Max)
	r.extend(b)
}

// OverlapArea returns the volume of the intersection of r and o. Plain
// comparisons stand in for math.Max and math.Min: on finite bounds they
// differ only in which zero an intersection edge at ±0 keeps, and no
// width changes with that sign.
func (r Rect) OverlapArea(o Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if o.Min[i] > lo {
			lo = o.Min[i]
		}
		if o.Max[i] < hi {
			hi = o.Max[i]
		}
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Expand grows the rectangle by eps on every side, the operation WALRUS
// uses to turn a region signature into an epsilon-envelope query.
func (r Rect) Expand(eps float64) Rect {
	out := r.Clone()
	for i := range out.Min {
		out.Min[i] -= eps
		out.Max[i] += eps
	}
	return out
}

// centerDist2 returns the squared euclidean distance between centers.
func centerDist2(a, b Rect) float64 {
	d2 := 0.0
	for i := range a.Min {
		d := (a.Min[i]+a.Max[i])/2 - (b.Min[i]+b.Max[i])/2
		d2 += d * d
	}
	return d2
}
