package rstar

import "testing"

func rect(t *testing.T, lo, hi []float64) Rect {
	t.Helper()
	r, err := NewRect(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// intersects reports whether r and o share any point (touching counts).
func intersects(r, o Rect) bool {
	for i := range r.Min {
		if r.Min[i] > o.Max[i] || o.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("accepted mismatched dims")
	}
	if _, err := NewRect([]float64{2}, []float64{1}); err == nil {
		t.Error("accepted min > max")
	}
	if _, err := NewRect(nil, nil); err == nil {
		t.Error("accepted zero-dimensional rect")
	}
}

func TestRectBasics(t *testing.T) {
	r := rect(t, []float64{0, 0}, []float64{2, 3})
	if r.Area() != 6 {
		t.Errorf("Area = %v, want 6", r.Area())
	}
	if r.Margin() != 5 {
		t.Errorf("Margin = %v, want 5", r.Margin())
	}
	if r.Dim() != 2 {
		t.Errorf("Dim = %d", r.Dim())
	}
}

func TestPointRect(t *testing.T) {
	p := Point([]float64{1, 2, 3})
	if p.Area() != 0 {
		t.Errorf("point area = %v", p.Area())
	}
	if !p.Contains(p) || !intersects(p, p) {
		t.Error("point does not contain/intersect itself")
	}
}

func TestIntersectsAndContains(t *testing.T) {
	a := rect(t, []float64{0, 0}, []float64{2, 2})
	b := rect(t, []float64{1, 1}, []float64{3, 3})
	c := rect(t, []float64{2.5, 2.5}, []float64{4, 4})
	d := rect(t, []float64{0.5, 0.5}, []float64{1.5, 1.5})
	if !intersects(a, b) || intersects(b, a) == false {
		t.Error("a/b should intersect")
	}
	if intersects(a, c) {
		t.Error("a/c should not intersect")
	}
	// Touching counts as intersecting.
	e := rect(t, []float64{2, 0}, []float64{3, 2})
	if !intersects(a, e) {
		t.Error("touching rects should intersect")
	}
	if !a.Contains(d) {
		t.Error("a should contain d")
	}
	if a.Contains(b) {
		t.Error("a should not contain b")
	}
}

func TestUnionAndEnlargement(t *testing.T) {
	a := rect(t, []float64{0, 0}, []float64{1, 1})
	b := rect(t, []float64{2, 2}, []float64{3, 3})
	u := a.Union(b)
	if !u.Contains(a) || !u.Contains(b) {
		t.Error("union does not contain operands")
	}
	if u.Area() != 9 {
		t.Errorf("union area = %v, want 9", u.Area())
	}
	// Union must not mutate operands.
	if a.Max[0] != 1 {
		t.Error("Union mutated receiver")
	}
}

func TestOverlapArea(t *testing.T) {
	a := rect(t, []float64{0, 0}, []float64{2, 2})
	b := rect(t, []float64{1, 1}, []float64{3, 3})
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
	c := rect(t, []float64{5, 5}, []float64{6, 6})
	if got := a.OverlapArea(c); got != 0 {
		t.Errorf("disjoint OverlapArea = %v, want 0", got)
	}
}

func TestExpand(t *testing.T) {
	p := Point([]float64{1, 1})
	e := p.Expand(0.5)
	if e.Min[0] != 0.5 || e.Max[1] != 1.5 {
		t.Errorf("Expand = %+v", e)
	}
	if e.Area() != 1 {
		t.Errorf("expanded area = %v, want 1", e.Area())
	}
}

func TestEqualAndClone(t *testing.T) {
	a := rect(t, []float64{0, 1}, []float64{2, 3})
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Min[0] = -1
	if a.Equal(b) || a.Min[0] != 0 {
		t.Error("clone shares storage")
	}
	if a.Equal(Point([]float64{0})) {
		t.Error("rects of different dims compared equal")
	}
}
