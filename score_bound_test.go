package walrus

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/region"
)

// boundCorpus is corpus50 with copies that tie: six images again under
// ids that sort after their originals ("dup-") and six under ids that
// sort before ("aaa-"), so a tie at the cut must go to the smaller id
// whichever of the two the score stage reaches first; and four crops,
// so candidates differ in area.
func boundCorpus(t *testing.T) []BatchItem {
	t.Helper()
	items := corpus50(t)
	for i := 0; i < 6; i++ {
		orig := items[3+7*i]
		items = append(items,
			BatchItem{ID: "dup-" + orig.ID, Image: orig.Image},
			BatchItem{ID: "aaa-" + orig.ID, Image: orig.Image})
	}
	for i := 0; i < 4; i++ {
		crop, err := imgio.Crop(items[5+9*i].Image, 4*i, 4*i, 96+4*i, 112-8*i)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{ID: fmt.Sprintf("crop-%d", i), Image: crop})
	}
	return items
}

// scanOracle ranks a query against every image by linear scan, with no
// index, pooled stage or bound: match.PairsWithin for the pairs, the
// refine rule of Section 5.5 applied pair by pair, match.Score for the
// similarity, a full sort and the Limit cut.
type scanOracle struct {
	ids     []string
	regions [][]region.Region
	areas   []int
}

func newScanOracle(t *testing.T, opts Options, items []BatchItem) *scanOracle {
	t.Helper()
	ext, err := region.NewExtractor(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	o := &scanOracle{}
	for _, it := range items {
		regions, err := ext.Extract(it.Image)
		if err != nil {
			t.Fatal(err)
		}
		o.ids = append(o.ids, it.ID)
		o.regions = append(o.regions, regions)
		o.areas = append(o.areas, it.Image.W*it.Image.H)
	}
	return o
}

func (o *scanOracle) query(t *testing.T, q []region.Region, qArea int, p QueryParams) []Match {
	t.Helper()
	out := []Match{}
	for i, regions := range o.regions {
		var pairs []match.Pair
		for _, pr := range match.PairsWithin(q, regions, p.Epsilon) {
			qf, tf := q[pr.Q].Fine, regions[pr.T].Fine
			if p.Refine && qf != nil && tf != nil {
				bound := p.RefineEpsilon
				if bound == 0 {
					bound = p.Epsilon * math.Sqrt(float64(len(qf))/float64(len(q[pr.Q].Signature)))
				}
				if euclid(qf, tf) > bound {
					continue
				}
			}
			pairs = append(pairs, pr)
		}
		if len(pairs) == 0 {
			continue
		}
		res, err := match.Score(q, regions, pairs, qArea, o.areas[i], match.Options{Algorithm: p.Matcher, Denominator: p.Denominator})
		if err != nil {
			t.Fatal(err)
		}
		if res.Similarity >= p.Tau {
			out = append(out, Match{ID: o.ids[i], Similarity: res.Similarity, Pairs: res.Pairs, MatchingRegions: len(pairs)})
		}
	}
	slices.SortFunc(out, compareMatches)
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	return out
}

// TestBoundedScoringExact: the score stage skips candidates by their
// coverage bound, and the rankings it returns — ids, similarity bits,
// pair sets and matching-region counts — equal a linear scan's that
// scores every image, at one and three shards, with refine off and on,
// under the quick, greedy and assignment matchers, at τ 0 and 0.4 and at
// Limits 0, 1 and 10, for pixels and id queries. The EXPLAIN scored
// count is the same at GOMAXPROCS 1 and 8, and the bound skips some
// candidates.
func TestBoundedScoringExact(t *testing.T) {
	opts := testOptions()
	opts.Region.FineSignature = 4
	items := boundCorpus(t)
	oracle := newScanOracle(t, opts, items)
	queries := []int{3, 17, 38, 50, 59}
	candidates, scored := 0, 0
	for _, shards := range []int{1, 3} {
		o := opts
		o.Shards = shards
		db, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		for _, refine := range []bool{false, true} {
			for _, matcher := range []match.Algorithm{match.Quick, match.Greedy, match.Assignment} {
				for _, tau := range []float64{0, 0.4} {
					for _, limit := range []int{0, 1, 10} {
						p := DefaultQueryParams()
						p.Refine, p.Matcher, p.Tau, p.Limit = refine, matcher, tau, limit
						for _, qi := range queries {
							q := items[qi]
							want := oracle.query(t, oracle.regions[qi], oracle.areas[qi], p)
							for _, byID := range []bool{false, true} {
								label := fmt.Sprintf("shards=%d refine=%v %v tau=%v limit=%d query=%s byID=%v", shards, refine, matcher, tau, limit, q.ID, byID)
								var counts [2]int
								for j, procs := range []int{1, 8} {
									setProcs(t, procs)
									ctx, qt := WithQueryTrace(context.Background())
									var got []Match
									var stats QueryStats
									if byID {
										got, stats, err = db.QueryByID(ctx, q.ID, p)
									} else {
										got, stats, err = db.QueryContext(ctx, q.Image, p)
									}
									if err != nil {
										t.Fatalf("%s: %v", label, err)
									}
									if diff := rankingDiff(got, want); diff != "" {
										t.Fatalf("%s procs=%d: %s", label, procs, diff)
									}
									counts[j] = scoredOf(t, qt)
									if procs == 1 {
										candidates += stats.CandidateImages
										scored += counts[j]
									}
								}
								if counts[0] != counts[1] {
									t.Fatalf("%s: scored %d at GOMAXPROCS 1, %d at 8", label, counts[0], counts[1])
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("scored %d of %d candidates", scored, candidates)
	if scored >= candidates {
		t.Fatalf("the bound skipped nothing: %d of %d candidates scored", scored, candidates)
	}
}

// rankingDiff describes the first difference between two rankings, ""
// when they agree bit for bit.
func rankingDiff(got, want []Match) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, oracle has %d:\n got  %+v\n want %+v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) ||
			g.MatchingRegions != w.MatchingRegions || !slices.Equal(g.Pairs, w.Pairs) {
			return fmt.Sprintf("rank %d: got %+v, oracle %+v", i+1, g, w)
		}
	}
	return ""
}

// scoredOf reads an EXPLAIN's scored count, checking that the score
// row's equals the sum of the shard rows' and is at most its input.
func scoredOf(t *testing.T, qt *QueryTrace) int {
	t.Helper()
	perShard := 0
	for _, sh := range qt.Shards {
		perShard += sh.Scored
	}
	for _, st := range qt.Stages {
		if st.Stage != "score" {
			continue
		}
		if st.Scored != perShard || st.Scored > st.In {
			t.Fatalf("score row scored %d of %d, shard rows sum to %d", st.Scored, st.In, perShard)
		}
		return st.Scored
	}
	t.Fatal("EXPLAIN has no score row")
	return 0
}
