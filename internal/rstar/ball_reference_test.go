package rstar

import (
	"math"
	"math/rand"
	"testing"
)

// farPointRef and farBoxRef are the ball tests as they were before the
// kernel compared the sum with the bound once per block: a comparison
// after every term. The test below holds the blocked kernels to exactly
// their verdicts.
func (p *Probe) farPointRef(box []byte, bound float64) bool {
	sum := 0.0
	for _, c := range p.Center {
		diff := c - leFloat(box)
		if sum += float64(diff * diff); sum > bound {
			return true
		}
		box = box[8:]
	}
	return false
}

func (p *Probe) farBoxRef(box []byte, dim int, bound float64) bool {
	lo, hi := box, box[8*dim:]
	sum := 0.0
	for _, c := range p.Center {
		diff := c - leFloat(lo)
		if diff > 0 {
			if diff = c - leFloat(hi); diff < 0 {
				diff = 0
			}
		}
		if sum += float64(diff * diff); sum > bound {
			return true
		}
		lo, hi = lo[8:], hi[8:]
	}
	return false
}

// ballKernelDims are the dimensions the blocked kernels are checked at:
// below, at and across a block, the signature's 12, and a tail past it.
var ballKernelDims = []int{1, 2, 3, 4, 5, 12, 13}

// TestBallKernelMatchesReference holds the blocked farPointRaw and
// farBoxRaw to the per-term reference on every input that can tell them
// apart:
//   - points on, and one ulp either side of, the sphere around random
//     centers, at the radii's ball bounds;
//   - bounds placed at each prefix sum and one ulp below it, so the sum
//     first passes the bound at every coordinate in turn;
//   - NaN, +Inf and −Inf at every coordinate, in the point, the box's
//     corners or the center, alone and paired with a second special value
//     or an over-bound term before or after it in the same block — the
//     case where a NaN block sum hides a prefix that already passed.
func TestBallKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inf, nan := math.Inf(1), math.NaN()
	// check compares both kernels with both references on one center and
	// box [lo, hi] (the point test reads lo) under every bound given.
	checks := 0
	check := func(what string, c, lo, hi []float64, bounds ...float64) {
		t.Helper()
		p := &Probe{Center: c}
		raw := rawRect(lo, hi)
		for _, bound := range bounds {
			checks++
			if got, want := p.farPointRaw(raw, bound), p.farPointRef(raw, bound); got != want {
				t.Fatalf("%s: farPointRaw(c=%v, q=%v, bound=%v) = %v, reference %v", what, c, lo, bound, got, want)
			}
			if got, want := p.farBoxRaw(raw, len(c), bound), p.farBoxRef(raw, len(c), bound); got != want {
				t.Fatalf("%s: farBoxRaw(c=%v, [%v, %v], bound=%v) = %v, reference %v", what, c, lo, hi, bound, got, want)
			}
		}
	}
	randVec := func(d int) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	// prefixBounds are the bounds at which the point's sum around c first
	// passes at each coordinate: each prefix sum and the float below it.
	prefixBounds := func(c, q []float64) []float64 {
		var out []float64
		sum := 0.0
		for j := range c {
			diff := c[j] - q[j]
			sum += float64(diff * diff)
			out = append(out, sum, math.Nextafter(sum, math.Inf(-1)))
		}
		return out
	}
	specials := []float64{nan, inf, -inf}

	for _, d := range ballKernelDims {
		// Near the sphere: q = c + eps·u for a random direction u, nudged
		// one ulp in and out per coordinate.
		for trial := 0; trial < 400; trial++ {
			c := randVec(d)
			eps := []float64{0.085, 0.3, 1e-9, 0}[trial%4]
			u, norm := make([]float64, d), 0.0
			for j := range u {
				u[j] = rng.NormFloat64()
				norm += u[j] * u[j]
			}
			norm = math.Sqrt(norm)
			q := make([]float64, d)
			for j := range q {
				q[j] = c[j] + eps*u[j]/norm
			}
			for _, dir := range []float64{0, math.Inf(1), math.Inf(-1)} {
				nq := append([]float64(nil), q...)
				if dir != 0 {
					for j := range nq {
						nq[j] = math.Nextafter(nq[j], dir)
					}
				}
				bounds := append([]float64{ballBound(eps), ballBound(math.Nextafter(eps, 1)), 0, inf, -inf}, prefixBounds(c, nq)...)
				check("sphere", c, nq, nq, bounds...)
				hi := make([]float64, d)
				for j := range hi {
					hi[j] = nq[j] + rng.Float64()*eps
				}
				check("sphere box", c, nq, hi, bounds...)
			}
		}

		// Specials at every position, alone and paired with a second
		// special or an over-bound term at every other position.
		for j := 0; j < d; j++ {
			for _, v := range specials {
				for where := 0; where < 3; where++ {
					c, q := randVec(d), randVec(d)
					hi := append([]float64(nil), q...)
					switch where {
					case 0:
						q[j], hi[j] = v, v
					case 1:
						hi[j] = v
					case 2:
						c[j] = v
					}
					bounds := append([]float64{ballBound(0.085), 0, inf, -inf, 1e300}, prefixBounds(c, q)...)
					check("special", c, q, hi, bounds...)
					for k := 0; k < d; k++ {
						if k == j {
							continue
						}
						for _, w := range append([]float64{1e6}, specials...) {
							c2, q2, hi2 := append([]float64(nil), c...), append([]float64(nil), q...), append([]float64(nil), hi...)
							q2[k], hi2[k] = w, w
							check("special pair", c2, q2, hi2, append([]float64{ballBound(0.085), 1, 1e300, inf}, prefixBounds(c2, q2)...)...)
						}
					}
				}
			}
		}
	}

	// The case a blocked sum must not hide: a term over the bound, then a
	// NaN later in the same block. The reference rejects at the first.
	for _, d := range ballKernelDims {
		for j := 0; j+1 < d; j++ {
			c, q := make([]float64, d), make([]float64, d)
			q[j], q[j+1] = 10, nan
			p := &Probe{Center: c}
			raw := rawRect(q, q)
			if !p.farPointRef(raw, 1) || !p.farPointRaw(raw, 1) {
				t.Fatalf("d=%d: an over-bound term at %d followed by NaN at %d is kept", d, j, j+1)
			}
			if !p.farBoxRaw(raw, d, 1) {
				t.Fatalf("d=%d: box with an over-bound term at %d followed by NaN at %d is kept", d, j, j+1)
			}
		}
	}
	if checks < 100000 {
		t.Fatalf("only %d kernel checks ran", checks)
	}
}
