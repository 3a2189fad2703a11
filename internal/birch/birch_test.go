package birch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// radius returns the BIRCH radius of cf: the root-mean-square distance of
// the member points from the centroid, sqrt(SS/N - |LS/N|²).
func radius(cf *CF) float64 {
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

// TestCFAdditivity: merging CFs equals building one CF from all points, and
// the leaf-entry bounding boxes combine the same way.
func TestCFAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		na, nb := 1+rng.Intn(10), 1+rng.Intn(10)
		a, b, all := NewCF(dim), NewCF(dim), NewCF(dim)
		for i := 0; i < na+nb; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			if i < na {
				a.Add(p)
			} else {
				b.Add(p)
			}
			all.Add(p)
		}
		a.Merge(&b)
		if a.N != all.N || !almostEqual(a.SS, all.SS) {
			return false
		}
		for i := range a.LS {
			if !almostEqual(a.LS[i], all.LS[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCFRadiusMatchesBruteForce: the CF radius equals the RMS distance of
// the points from their centroid.
func TestCFRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const dim, n = 4, 100
	cf := NewCF(dim)
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		points[i] = p
		cf.Add(p)
	}
	c := cf.Centroid()
	var sum float64
	for _, p := range points {
		for j := range p {
			d := p[j] - c[j]
			sum += d * d
		}
	}
	want := math.Sqrt(sum / n)
	if !almostEqual(radius(&cf), want) {
		t.Fatalf("Radius = %v, brute force %v", radius(&cf), want)
	}
}

func TestCFEmpty(t *testing.T) {
	cf := NewCF(3)
	if radius(&cf) != 0 {
		t.Error("empty CF radius nonzero")
	}
	c := cf.Centroid()
	for _, v := range c {
		if v != 0 {
			t.Error("empty CF centroid nonzero")
		}
	}
}

func TestMergedRadiusMatchesActualMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a, b := NewCF(3), NewCF(3)
	for i := 0; i < 20; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%2 == 0 {
			a.Add(p)
		} else {
			b.Add(p)
		}
	}
	predicted := mergedRadius(&a, &b)
	a.Merge(&b)
	if !almostEqual(predicted, radius(&a)) {
		t.Fatalf("mergedRadius = %v, actual %v", predicted, radius(&a))
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Threshold: -1, Branching: 4, LeafSize: 4, Dim: 2},
		{Threshold: 1, Branching: 1, LeafSize: 4, Dim: 2},
		{Threshold: 1, Branching: 4, LeafSize: 0, Dim: 2},
		{Threshold: 1, Branching: 4, LeafSize: 4, Dim: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	if _, err := NewTree(bad[0]); err == nil {
		t.Error("NewTree accepted invalid params")
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr, err := NewTree(DefaultParams(3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]float64{1, 2}, 0); err == nil {
		t.Error("Insert accepted wrong dimension")
	}
}

// gaussianBlobs generates n points around each of the given centers.
func gaussianBlobs(rng *rand.Rand, centers [][]float64, n int, sigma float64) ([][]float64, []int) {
	var points [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*sigma
			}
			points = append(points, p)
			labels = append(labels, ci)
		}
	}
	return points, labels
}

// TestClusterRecoversBlobs: well-separated blobs come out as exactly one
// cluster each, with the right members.
func TestClusterRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	points, labels := gaussianBlobs(rng, centers, 50, 0.2)
	clusters, err := ClusterPoints(points, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != len(centers) {
		t.Fatalf("got %d clusters, want %d", len(clusters), len(centers))
	}
	// Every cluster must be label-pure and every point assigned exactly once.
	seen := make(map[int]bool)
	for _, c := range clusters {
		label := labels[c.Members[0]]
		for _, m := range c.Members {
			if labels[m] != label {
				t.Fatalf("cluster mixes labels %d and %d", label, labels[m])
			}
			if seen[m] {
				t.Fatalf("point %d assigned twice", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != len(points) {
		t.Fatalf("%d of %d points assigned", len(seen), len(points))
	}
}

// TestRadiusThresholdInvariant: after insertion, every cluster radius is at
// most the threshold (each absorption is guarded by the merged-radius
// test, and singleton entries have radius 0).
func TestRadiusThresholdInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const threshold = 0.3
		tr, err := NewTree(DefaultParams(3, threshold))
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if err := tr.Insert(p, i); err != nil {
				return false
			}
		}
		for _, c := range tr.Clusters() {
			if radius(&c.CF) > threshold+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeStructuralInvariants: node occupancy limits hold and all points
// are present exactly once.
func TestTreeStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	params := Params{Threshold: 0.05, Branching: 4, LeafSize: 3, Dim: 2}
	tr, err := NewTree(params)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Insert([]float64{rng.Float64(), rng.Float64()}, i); err != nil {
			t.Fatal(err)
		}
	}
	var checkNode func(nd *node) (CF, int)
	checkNode = func(nd *node) (CF, int) {
		sum := NewCF(params.Dim)
		count := 0
		if nd.leaf {
			if len(nd.entries) > params.LeafSize {
				t.Fatalf("leaf has %d entries, max %d", len(nd.entries), params.LeafSize)
			}
			for _, e := range nd.entries {
				if e.child != nil {
					t.Fatal("leaf entry has a child")
				}
				if len(e.members) != e.cf.N {
					t.Fatalf("entry members %d != CF.N %d", len(e.members), e.cf.N)
				}
				sum.Merge(&e.cf)
				count += e.cf.N
			}
			return sum, count
		}
		if len(nd.entries) > params.Branching {
			t.Fatalf("nonleaf has %d entries, max %d", len(nd.entries), params.Branching)
		}
		for _, e := range nd.entries {
			childCF, childCount := checkNode(e.child)
			if childCF.N != e.cf.N || !almostEqual(childCF.SS, e.cf.SS) {
				t.Fatalf("summary CF stale: child N=%d SS=%v, entry N=%d SS=%v",
					childCF.N, childCF.SS, e.cf.N, e.cf.SS)
			}
			sum.Merge(&childCF)
			count += childCount
		}
		return sum, count
	}
	_, count := checkNode(tr.root)
	if count != n {
		t.Fatalf("tree holds %d points, want %d", count, n)
	}
}

// TestClusterBoundingBoxContainsMembers: the tracked min/max really bound
// all member points.
func TestClusterBoundingBoxContainsMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	clusters, err := ClusterPoints(points, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clusters {
		for _, m := range c.Members {
			for j, v := range points[m] {
				if v < c.Min[j]-1e-12 || v > c.Max[j]+1e-12 {
					t.Fatalf("member %d outside bbox on dim %d", m, j)
				}
			}
		}
	}
}

// TestRebuildReducesClusters: a larger threshold yields at most as many
// clusters, still covering every point.
func TestRebuildReducesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	tr, err := NewTree(DefaultParams(2, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Insert([]float64{rng.Float64(), rng.Float64()}, i); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.NumClusters()
	nt, err := tr.Rebuild(0.3)
	if err != nil {
		t.Fatal(err)
	}
	after := nt.NumClusters()
	if after > before {
		t.Fatalf("rebuild increased clusters: %d -> %d", before, after)
	}
	total := 0
	var all []int
	for _, c := range nt.Clusters() {
		total += len(c.Members)
		all = append(all, c.Members...)
	}
	if total != n {
		t.Fatalf("rebuild lost points: %d of %d", total, n)
	}
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("member ids damaged at %d: %d", i, v)
		}
	}
	if _, err := tr.Rebuild(0.001); err == nil {
		t.Error("Rebuild accepted smaller threshold")
	}
}

// TestClusterPointsMaxClusters: the rebuild loop enforces the cap.
func TestClusterPointsMaxClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{rng.Float64() * 5, rng.Float64() * 5}
	}
	clusters, err := ClusterPoints(points, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) > 10 {
		t.Fatalf("got %d clusters, cap 10", len(clusters))
	}
}

func TestClusterPointsEmpty(t *testing.T) {
	clusters, err := ClusterPoints(nil, 0.1, 0)
	if err != nil || clusters != nil {
		t.Fatalf("ClusterPoints(nil) = %v, %v", clusters, err)
	}
}

// TestThresholdMonotonicity: larger thresholds never yield more clusters
// on the same data in the same order.
func TestThresholdMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	prev := -1
	for _, th := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		clusters, err := ClusterPoints(points, th, 0)
		if err != nil {
			t.Fatal(err)
		}
		// BIRCH is order-sensitive, so strict monotonicity is not
		// guaranteed; allow slack but catch gross violations.
		if prev >= 0 && len(clusters) > prev+prev/4+1 {
			t.Fatalf("threshold %v produced %d clusters, previous smaller threshold produced %d", th, len(clusters), prev)
		}
		prev = len(clusters)
	}
}
