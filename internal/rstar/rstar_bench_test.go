package rstar

import (
	"fmt"
	"math/rand"
	"testing"

	"walrus/internal/store"
)

func benchRects(n, dim int) []Rect {
	rng := rand.New(rand.NewSource(2))
	out := make([]Rect, n)
	for i := range out {
		out[i] = randomRect(rng, dim)
	}
	return out
}

// BenchmarkInsert's dim=N sub-benchmarks build a 2000-entry tree of
// uniform boxes per op. "clustered/dim=12" times a single Insert per op
// into a tree of clustered 12-d points at M = 16 grown from empty to 10k
// entries and then started afresh: the tree an in-memory DB.Add grows.
func BenchmarkInsert(b *testing.B) {
	b.Run("clustered/dim=12", func(b *testing.B) {
		const dim, grown = 12, 10000
		_, pts := clusteredPoints(rand.New(rand.NewSource(7)), dim, 50, grown, 0.05)
		rects := make([]Rect, grown)
		for i, p := range pts {
			rects[i] = Point(p)
		}
		var tr *Tree
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % grown
			if j == 0 {
				b.StopTimer()
				s, _ := NewMemStore(dim, 16)
				tr, _ = New(s)
				b.StartTimer()
			}
			if err := tr.Insert(rects[j], int64(j)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, dim := range []int{2, 12} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rects := benchRects(2000, dim)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, _ := NewMemStore(dim, 16)
				tr, _ := New(s)
				for j, r := range rects {
					if err := tr.Insert(r, int64(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, dim := range []int{2, 12} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rects := benchRects(2000, dim)
			data := make([]int64, len(rects))
			for i := range data {
				data[i] = int64(i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, _ := NewMemStore(dim, 16)
				if _, err := BulkLoad(s, rects, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearch(b *testing.B) {
	const dim = 12
	rects := benchRects(5000, dim)
	s, _ := NewMemStore(dim, 16)
	data := make([]int64, len(rects))
	for i := range data {
		data[i] = int64(i)
	}
	tr, err := BulkLoad(s, rects, data)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchRects(64, dim)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)].Expand(0.085)
		if _, err := tr.SearchAll(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbePaged is the disk-side counterpart of BenchmarkSearch: a
// three-region query's worth of probes answered in one descent over pages
// scanned in place, through a pool a quarter the tree's size. The points
// are clustered, as region signatures are. "box" probes have no
// center, so the ε-cube alone prunes; "ball" probes prune by the ε-ball as
// well. visits/op and pager_reads/op (pool misses) show what the ball
// saves; allocs/op is the descent's few plus one Frame per miss. The
// "points/" sub-benchmarks run the same queries over a point-leaf store,
// whose leaves hold twice the entries, with a pool of the same size;
// "points/ballonly" is the query pipeline's probe, the ε-ball with no
// box.
func BenchmarkProbePaged(b *testing.B) {
	const dim, clusters, eps = 12, 50, 0.3
	centers, pts := clusteredPoints(rand.New(rand.NewSource(4)), dim, clusters, 5000, 0.05)
	// Query q probes around clusters q, q+1 and q+2, so successive queries
	// read different pages, as successive queries of a workload do.
	ball, box, ballOnly := make([][]Probe, clusters), make([][]Probe, clusters), make([][]Probe, clusters)
	for q := range ball {
		ball[q], ballOnly[q] = make([]Probe, 3), make([]Probe, 3)
		for i := range ball[q] {
			c := centers[(q+i)%clusters]
			ball[q][i] = Probe{Box: Point(c).Expand(eps), Center: c, Eps: eps}
			ballOnly[q][i] = Probe{Center: c, Eps: eps}
		}
		box[q] = boxOnly(ball[q])
	}
	for _, leaves := range []LeafKind{BoxLeaves, PointLeaves} {
		prefix, sets := "", []probeSet{{"box", box}, {"ball", ball}}
		if leaves == PointLeaves {
			prefix, sets = "points/", append(sets, probeSet{"ballonly", ballOnly})
		}
		tr, ps, _ := pagedPointTree(b, store.DefaultPageSize, dim, 64, pts, leaves)
		benchProbePaged(b, prefix, tr, ps, sets)
	}
}

// probeSet is one named sub-benchmark's queries.
type probeSet struct {
	name    string
	queries [][]Probe
}

func benchProbePaged(b *testing.B, prefix string, tr *Tree, ps *PagedStore, sets []probeSet) {
	for _, bc := range sets {
		b.Run(prefix+bc.name, func(b *testing.B) {
			hits, visits, tests := 0, 0, 0
			emit := func(int, int64) { hits++ }
			misses := poolCounter(ps, "misses")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := tr.Probe(bc.queries[i%len(bc.queries)], emit)
				if err != nil {
					b.Fatal(err)
				}
				visits += c.Visits
				tests += c.EntryTests
			}
			b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
			b.ReportMetric(float64(tests)/float64(b.N), "entry_tests/op")
			b.ReportMetric(float64(misses.Value())/float64(b.N), "pager_reads/op")
			if hits == 0 {
				b.Fatal("probes matched nothing")
			}
		})
	}
}
