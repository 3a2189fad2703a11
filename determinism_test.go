package walrus

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/region"
)

// corpus50 builds a seeded 50-image corpus of synthetic scenes with varied
// object positions, sizes and colors.
func corpus50(t *testing.T) []BatchItem {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	palette := [][2][3]float64{
		{green, red}, {gray, blue}, {green, yellow}, {gray, red}, {blue, yellow},
	}
	items := make([]BatchItem, 50)
	for i := range items {
		p := palette[i%len(palette)]
		side := 32 + rng.Intn(48)
		x := rng.Intn(128 - side)
		y := rng.Intn(128 - side)
		items[i] = BatchItem{
			ID:    fmt.Sprintf("corpus-%02d", i),
			Image: scene(p[0], p[1], x, y, side),
		}
	}
	return items
}

// setProcs sets GOMAXPROCS, which sizes every worker pool, to n for the
// rest of the test and restores the old value when the test ends. No test
// in this package calls t.Parallel, so no other test sees the change.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// assertSameRanking fails unless a at GOMAXPROCS 1 and b at GOMAXPROCS
// procs rank a query identically — same ids, similarities, and
// matching-region counts in the same order.
func assertSameRanking(t *testing.T, label string, a, b *DB, q *imgio.Image, procs int) {
	t.Helper()
	setProcs(t, 1)
	ma, sa, err := a.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatalf("%s: serial query: %v", label, err)
	}
	setProcs(t, procs)
	mb, sb, err := b.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatalf("%s: parallel query: %v", label, err)
	}
	if sa.RegionsRetrieved != sb.RegionsRetrieved || sa.CandidateImages != sb.CandidateImages {
		t.Fatalf("%s: stats differ: retrieved %d/%d candidates %d/%d",
			label, sa.RegionsRetrieved, sb.RegionsRetrieved, sa.CandidateImages, sb.CandidateImages)
	}
	if len(ma) != len(mb) {
		t.Fatalf("%s: %d matches vs %d", label, len(ma), len(mb))
	}
	for i := range ma {
		if ma[i].ID != mb[i].ID || ma[i].Similarity != mb[i].Similarity ||
			ma[i].MatchingRegions != mb[i].MatchingRegions {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", label, i, ma[i], mb[i])
		}
	}
}

// TestAddBatchParallelDeterminism: ingesting the corpus with one worker at
// GOMAXPROCS 1 and with four workers at GOMAXPROCS 4 must produce
// databases that rank every query identically — the ordered-merge
// guarantee of the parallel pipeline.
func TestAddBatchParallelDeterminism(t *testing.T) {
	items := corpus50(t)
	setProcs(t, 1)
	serial, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.AddBatch(items, 1); err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	par, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := par.AddBatch(items, 4); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*imgio.Image{items[0].Image, items[7].Image, scene(green, red, 24, 24, 40)} {
		assertSameRanking(t, "AddBatch", serial, par, q, 4)
	}
}

// TestBuildFromParallelDeterminism: the packed bulk-load path has the
// same guarantee.
func TestBuildFromParallelDeterminism(t *testing.T) {
	items := corpus50(t)
	setProcs(t, 1)
	serial, err := BuildFrom(testOptions(), items, 1)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	par, err := BuildFrom(testOptions(), items, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*imgio.Image{items[3].Image, scene(gray, blue, 40, 40, 44)} {
		assertSameRanking(t, "BuildFrom", serial, par, q, 4)
	}
}

// TestQueryParallelismDeterminism: on one database, every GOMAXPROCS
// must return the same matches and stats as GOMAXPROCS 1.
func TestQueryParallelismDeterminism(t *testing.T) {
	items := corpus50(t)
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	q := items[11].Image
	for _, procs := range []int{2, 4, 16} {
		assertSameRanking(t, fmt.Sprintf("GOMAXPROCS=%d", procs), db, db, q, procs)
	}
}

// TestAggregateStageSpan checks that aggregation reads and clears only
// the bitset words its hit slots span: hits in one band of a large
// catalog, then none, then another band must each yield exactly their
// own images, so no bit of an earlier query survives in the pooled
// bitset.
func TestAggregateStageSpan(t *testing.T) {
	band := func(lo, hi int) []probeHit {
		var hits []probeHit
		for img := lo; img < hi; img += 7 {
			hits = append(hits, probeHit{image: img, pair: match.Pair{Q: img % 3, T: 1}})
		}
		return hits
	}
	for _, tc := range []struct {
		hits      []probeHit
		numImages int
	}{
		{nil, 0},
		{band(5000, 5300), 10000},
		{nil, 10000},
		{band(60, 200), 10000},
		{band(5003, 5400), 10000},
		{band(9930, 10000), 10000},
		{band(0, 64), 64},
	} {
		var want []int
		for _, h := range tc.hits {
			want = append(want, h.image)
		}
		if got := aggregateStage(tc.hits, make([]imageRecord, tc.numImages), make([]uint16, 2)).images; !slices.Equal(got, want) {
			t.Fatalf("%d hits over %d images: candidates %v, want %v", len(tc.hits), tc.numImages, got, want)
		}
	}
}

// TestAggregateStageOrderIndependent: a ranking is a function of the
// set of hits the probe returned, not of the order the index emitted
// them in. Another tree shape emits the same hits in another order, with
// the hits of different query regions interleaved. Aggregation appends
// each hit to its image's run in emission order and sums the score
// bound's inputs beside it (the mask of the run's query regions and the
// pop sum of its distinct target regions), which must match a reference
// built from the set; the one-to-one matchers break ties by pair order,
// so the score stage must rank alike, pair sets included, whatever the
// emission order. Catalogs of 12 and 150 images put the hit slots in one
// and in several bitset words.
func TestAggregateStageOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randomBitmap := func() region.Bitmap {
		b := region.NewBitmap(4)
		b.Words[0] = rng.Uint64() & rng.Uint64() & 0xffff
		return b
	}
	query := make([]region.Region, 4)
	for qi := range query {
		query[qi].Bitmap = randomBitmap()
	}
	qBits := match.Flatten(query, 4)
	for _, images := range []int{12, 150} {
		// Every image has 6 regions with random 4×4 bitmaps; payloads run
		// in image order.
		core := &snapCore{images: make([]imageRecord, images), cols: regionColumns{dim: 1, k: 4, words: 1}}
		for img := range core.images {
			core.images[img] = imageRecord{ID: fmt.Sprintf("img-%03d", img), W: 40 + rng.Intn(80), H: 40 + rng.Intn(80), First: 6 * img, Count: 6}
			for range 6 {
				core.cols.add(&region.Region{Signature: []float64{0}, Bitmap: randomBitmap()})
			}
		}
		snap := &shardSnapshot{core: core}
		// Most images are hit by few query regions, so an image's run
		// often starts at the query region where its neighbour's run ends.
		var hits []probeHit
		for qi := 0; qi < 4; qi++ {
			for img := 0; img < images; img++ {
				if rng.Intn(3) != 0 {
					continue
				}
				for _, local := range rng.Perm(6)[:rng.Intn(4)] {
					hits = append(hits, probeHit{image: img, pair: match.Pair{Q: qi, T: local}})
				}
			}
		}
		want := aggregateStage(hits, core.images, core.cols.pop)
		if !slices.IsSorted(want.images) || len(want.start) != len(want.images)+1 || want.start[len(want.images)] != len(want.pairs) || len(want.pairs) != len(hits) {
			t.Fatalf("images=%d: malformed candidate set: images %v, start %v, %d pairs for %d hits",
				images, want.images, want.start, len(want.pairs), len(hits))
		}
		// Reference: every image's hits in emission order.
		ref := make(map[int][]match.Pair)
		for _, h := range hits {
			ref[h.image] = append(ref[h.image], h.pair)
		}
		if len(ref) != len(want.images) {
			t.Fatalf("images=%d: %d candidates, want %d", images, len(want.images), len(ref))
		}
		for i, img := range want.images {
			if pairs := want.pairsOf(i); !slices.Equal(pairs, ref[img]) {
				t.Fatalf("images=%d image %d: pairs %v, want %v", images, img, pairs, ref[img])
			}
			var qmask uint64
			seenT := map[int]bool{}
			tcells := 0
			for _, p := range ref[img] {
				qmask |= 1 << p.Q
				if !seenT[p.T] {
					seenT[p.T] = true
					tcells += int(core.cols.pop[core.images[img].First+p.T])
				}
			}
			if want.qmask[i] != qmask || want.tcells[i] != tcells {
				t.Fatalf("images=%d image %d: bound inputs qmask %b tcells %d, want %b and %d", images, img, want.qmask[i], want.tcells[i], qmask, tcells)
			}
		}
		rank := func(c *candidateSet, p QueryParams) []Match {
			m, _, err := snap.scoreStage(context.Background(), qBits, 100*100, c, p)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		for trial := 0; trial < 20; trial++ {
			// Shuffle the whole list: every region's hits interleave with
			// the others', and the bitset and slot arrays come back from
			// the pool of the previous trial.
			permuted := append([]probeHit(nil), hits...)
			rng.Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
			got := aggregateStage(permuted, core.images, core.cols.pop)
			if !slices.Equal(got.images, want.images) || !slices.Equal(got.start, want.start) ||
				!slices.Equal(got.qmask, want.qmask) || !slices.Equal(got.tcells, want.tcells) {
				t.Fatalf("images=%d trial %d: permuting the hits changed the candidates or their bound inputs", images, trial)
			}
			p := DefaultQueryParams()
			p.Matcher = []match.Algorithm{match.Quick, match.Greedy, match.Assignment}[trial%3]
			p.Limit = []int{0, 1, 5}[trial%3]
			// Each ranking starts from a fresh copy of want: scoring puts
			// the runs of the candidates it scores in (Q, T) order.
			wantRank := rank(cloneCandidates(want), p)
			if gotRank := rank(got, p); !reflect.DeepEqual(gotRank, wantRank) {
				t.Fatalf("images=%d trial %d %v: permuting the hits changed the ranking:\n got  %v\n want %v", images, trial, p.Matcher, gotRank, wantRank)
			}
		}
	}
}

// cloneCandidates copies a candidate set out of the pool's reach.
func cloneCandidates(c *candidateSet) *candidateSet {
	return &candidateSet{images: slices.Clone(c.images), start: slices.Clone(c.start), pairs: slices.Clone(c.pairs),
		qmask: slices.Clone(c.qmask), tcells: slices.Clone(c.tcells)}
}
