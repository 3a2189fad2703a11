package birch

import (
	"math/rand"
	"sort"
	"testing"
)

func TestMergeClustersRepairsSplitBlob(t *testing.T) {
	// Two tight sub-clusters of one blob, artificially split.
	rng := rand.New(rand.NewSource(59))
	mk := func(cx, cy float64, ids []int) Cluster {
		cf := NewCF(2)
		min := []float64{cx, cy}
		max := []float64{cx, cy}
		for range ids {
			p := []float64{cx + rng.NormFloat64()*0.01, cy + rng.NormFloat64()*0.01}
			cf.Add(p)
			for j := range p {
				if p[j] < min[j] {
					min[j] = p[j]
				}
				if p[j] > max[j] {
					max[j] = p[j]
				}
			}
		}
		return Cluster{CF: cf, Members: ids, Centroid: cf.Centroid(), Min: min, Max: max}
	}
	clusters := []Cluster{
		mk(0.50, 0.50, []int{0, 1, 2}),
		mk(0.52, 0.50, []int{3, 4}),
		mk(5.0, 5.0, []int{5, 6}), // far away: must survive
	}
	merged := MergeClusters(clusters, 0.1)
	if len(merged) != 2 {
		t.Fatalf("got %d clusters, want 2", len(merged))
	}
	// All members preserved exactly once.
	var all []int
	for _, c := range merged {
		all = append(all, c.Members...)
		if radius(&c.CF) > 0.1+1e-9 {
			t.Fatalf("merged cluster radius %v exceeds threshold", radius(&c.CF))
		}
		if len(c.Members) != c.CF.N {
			t.Fatalf("member count %d != CF.N %d", len(c.Members), c.CF.N)
		}
	}
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("members damaged: %v", all)
		}
	}
}

func TestMergeClustersNoOpWhenSeparated(t *testing.T) {
	mk := func(x float64, id int) Cluster {
		cf := NewCF(1)
		cf.Add([]float64{x})
		return Cluster{CF: cf, Members: []int{id}, Centroid: []float64{x}, Min: []float64{x}, Max: []float64{x}}
	}
	clusters := []Cluster{mk(0, 0), mk(10, 1), mk(20, 2)}
	merged := MergeClusters(clusters, 0.5)
	if len(merged) != 3 {
		t.Fatalf("separated clusters merged: %d", len(merged))
	}
	// The input must not be mutated.
	if clusters[0].CF.N != 1 {
		t.Fatal("input mutated")
	}
}

func TestMergeClustersHugeThresholdCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	var clusters []Cluster
	for i := 0; i < 10; i++ {
		cf := NewCF(3)
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		cf.Add(p)
		clusters = append(clusters, Cluster{
			CF: cf, Members: []int{i}, Centroid: p,
			Min: append([]float64(nil), p...), Max: append([]float64(nil), p...),
		})
	}
	merged := MergeClusters(clusters, 1e6)
	if len(merged) != 1 {
		t.Fatalf("got %d clusters under huge threshold", len(merged))
	}
	if merged[0].CF.N != 10 || len(merged[0].Members) != 10 {
		t.Fatalf("collapsed cluster incomplete: %+v", merged[0].CF)
	}
	// Bounding box covers all points.
	for i := range merged[0].Min {
		if merged[0].Min[i] > merged[0].Max[i] {
			t.Fatal("degenerate bbox")
		}
	}
}

func TestMergeClustersEmptyAndSingle(t *testing.T) {
	if got := MergeClusters(nil, 1); len(got) != 0 {
		t.Fatal("nil input")
	}
	cf := NewCF(1)
	cf.Add([]float64{1})
	one := []Cluster{{CF: cf, Members: []int{0}, Centroid: []float64{1}, Min: []float64{1}, Max: []float64{1}}}
	if got := MergeClusters(one, 1); len(got) != 1 {
		t.Fatal("single input")
	}
}
