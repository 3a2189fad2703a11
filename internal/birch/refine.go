//walrus:lint-hot cluster refinement runs per extraction pass
package birch

import "math"

// RefineClusters runs up to iterations rounds of centroid refinement over
// the given clusters (BIRCH's optional phase 4): every point is reassigned
// to its nearest cluster centroid and centroids are recomputed, which
// removes the remaining insertion-order sensitivity of the CF-tree at the
// cost of extra passes over the points. Empty clusters are dropped.
// Refinement stops early when an iteration moves no point.
//
// points[i] must be the point that was inserted with id i; member ids in
// the result index into points.
func RefineClusters(points [][]float64, clusters []Cluster, iterations int) []Cluster {
	if len(clusters) <= 1 || iterations < 1 || len(points) == 0 {
		return clusters
	}
	// Every buffer is allocated once, before any loop: the per-cluster
	// centroids, sums, members and bounds are capacity-limited windows of
	// one array each.
	dim, k := len(points[0]), len(clusters)
	window := func(buf []float64, i int) []float64 { return buf[i*dim : (i+1)*dim : (i+1)*dim] }
	cbuf := make([]float64, k*dim)
	centroids := make([][]float64, k)
	for i, c := range clusters {
		if len(c.Centroid) > 0 {
			centroids[i] = window(cbuf, i)
			copy(centroids[i], c.Centroid)
		}
	}
	assign := make([]int, len(points))
	// Initial assignment from the cluster membership.
	for ci, c := range clusters {
		for _, m := range c.Members {
			if m >= 0 && m < len(points) {
				assign[m] = ci
			}
		}
	}
	counts := make([]int, k)
	sums := make([]float64, k*dim)
	for iter := 0; iter < iterations; iter++ {
		moved := 0
		for pi, p := range points {
			best := assign[pi]
			bestD := math.Inf(1)
			for ci, c := range centroids {
				if c == nil {
					continue
				}
				d := 0.0
				for j := range p {
					diff := p[j] - c[j]
					d += diff * diff
				}
				if d < bestD {
					bestD = d
					best = ci
				}
			}
			if best != assign[pi] {
				assign[pi] = best
				moved++
			}
		}
		// Recompute centroids.
		clear(counts)
		clear(sums)
		for pi, p := range points {
			ci := assign[pi]
			counts[ci]++
			sum := window(sums, ci)
			for j := range p {
				sum[j] += p[j]
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				centroids[ci] = nil
				continue
			}
			if centroids[ci] == nil {
				centroids[ci] = window(cbuf, ci)
			}
			for j := 0; j < dim; j++ {
				centroids[ci][j] = sums[ci*dim+j] / float64(counts[ci])
			}
		}
		if moved == 0 {
			break
		}
	}

	// Rebuild clusters from the final assignment, dropping the empty ones.
	clear(counts)
	for _, ci := range assign {
		counts[ci]++
	}
	live := 0
	for ci, c := range centroids {
		if c != nil && counts[ci] > 0 {
			live++
		}
	}
	rebuilt := make([]Cluster, live)
	members := make([]int, len(points))
	bounds := make([]float64, 2*live*dim)
	n, off := 0, 0
	for ci, c := range centroids {
		size := counts[ci]
		if c == nil || size == 0 {
			continue
		}
		cf := NewCF(dim)
		mine := members[off : off+size : off+size]
		lo, hi := window(bounds, 2*n), window(bounds, 2*n+1)
		i := 0
		for pi, p := range points {
			if assign[pi] != ci {
				continue
			}
			cf.Add(p)
			mine[i] = pi
			if i++; i == 1 {
				copy(lo, p)
				copy(hi, p)
				continue
			}
			for j := range p {
				if p[j] < lo[j] {
					lo[j] = p[j]
				}
				if p[j] > hi[j] {
					hi[j] = p[j]
				}
			}
		}
		rebuilt[n] = Cluster{
			CF:       cf,
			Members:  mine,
			Centroid: cf.Centroid(),
			Min:      lo,
			Max:      hi,
		}
		n, off = n+1, off+size
	}
	return rebuilt
}
