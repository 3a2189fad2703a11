package walrus

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"walrus/internal/match"
)

// TestTopKMatchesFullSort: the bounded selection must keep exactly the
// prefix of a full sort by (similarity desc, id asc), in that order,
// however the candidates arrive — with most similarities tied, so the id
// tie-break decides the cut — at Limit 0 (unlimited), 1, a small k, n
// and beyond n.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, 40} {
		all := make([]Match, n)
		for i := range all {
			all[i] = Match{ID: fmt.Sprintf("img-%06d", rng.Intn(1000)*100+i), Similarity: float64(rng.Intn(4)) / 4, MatchingRegions: i}
		}
		full := slices.Clone(all)
		slices.SortFunc(full, func(a, b Match) int {
			if a.Similarity != b.Similarity {
				return cmp.Compare(b.Similarity, a.Similarity)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		for _, limit := range []int{0, 1, 3, n, n + 5} {
			want := full
			if limit > 0 && limit < n {
				want = full[:limit]
			}
			for trial := 0; trial < 10; trial++ {
				rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
				top := newTopK(limit, n)
				for _, r := range all {
					top.offer(r)
				}
				got := top.sorted()
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("n=%d limit=%d trial %d:\n got  %v\n want %v", n, limit, trial, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("n=%d limit=%d: %d kept matches in a slice of cap %d", n, limit, len(got), cap(got))
				}
			}
		}
	}
}

// TestTopKQueryMatchesFullRanking: a query's Tau and Limit must select
// exactly the matches a full ranking of every candidate would — filter
// by similarity, then take the first Limit — in a slice of exactly that
// many, under a matcher that builds pair sets and one that does not.
func TestTopKQueryMatchesFullRanking(t *testing.T) {
	items := corpus50(t)
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	greedy := DefaultQueryParams()
	greedy.Matcher = match.Greedy
	for _, base := range []QueryParams{DefaultQueryParams(), greedy} {
		for _, q := range []BatchItem{items[3], items[11], items[27]} {
			full, _, err := db.QueryContext(context.Background(), q.Image, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) < 4 {
				t.Fatalf("query %s: only %d candidates; the fixture must rank several", q.ID, len(full))
			}
			for i := 1; i < len(full); i++ {
				a, b := full[i-1], full[i]
				if a.Similarity < b.Similarity || (a.Similarity == b.Similarity && a.ID >= b.ID) {
					t.Fatalf("query %s: full ranking out of order at %d: %+v before %+v", q.ID, i, a, b)
				}
			}
			for _, tau := range []float64{0, 0.05, 0.2, 2} {
				for _, limit := range []int{0, 1, 3, len(full) + 5} {
					p := base
					p.Tau, p.Limit = tau, limit
					got, _, err := db.QueryContext(context.Background(), q.Image, p)
					if err != nil {
						t.Fatal(err)
					}
					want := []Match{}
					for _, m := range full {
						if m.Similarity >= tau && (limit == 0 || len(want) < limit) {
							want = append(want, m)
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("query %s matcher %v tau=%v limit=%d:\n got  %+v\n want %+v", q.ID, p.Matcher, tau, limit, got, want)
					}
					if cap(got) != len(got) {
						t.Fatalf("query %s matcher %v tau=%v limit=%d: %d matches in a slice of cap %d", q.ID, p.Matcher, tau, limit, len(got), cap(got))
					}
				}
			}
		}
	}
}

// TestTopKResultsExactlySized: a returned ranking is sized to the
// matches it holds, so neither the caller nor a result-cache entry pins
// the storage of the candidates the Limit cut dropped — from a plain
// database, a sharded one, and a cache hit.
func TestTopKResultsExactlySized(t *testing.T) {
	items := corpus50(t)
	opts := testOptions()
	opts.CacheSize = 8
	db, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	opts.Shards = 3
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	p := DefaultQueryParams()
	p.Limit = 3
	q := items[11].Image
	for _, tc := range []struct {
		name  string
		query func() ([]Match, QueryStats, error)
		cache string
	}{
		{"db miss", func() ([]Match, QueryStats, error) { return db.QueryContext(context.Background(), q, p) }, "miss"},
		{"db hit", func() ([]Match, QueryStats, error) { return db.QueryContext(context.Background(), q, p) }, "hit"},
		{"sharded miss", func() ([]Match, QueryStats, error) { return s.QueryContext(context.Background(), q, p) }, "miss"},
		{"sharded hit", func() ([]Match, QueryStats, error) { return s.QueryContext(context.Background(), q, p) }, "hit"},
	} {
		got, stats, err := tc.query()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Cache != tc.cache {
			t.Fatalf("%s: cache outcome %q, want %q", tc.name, stats.Cache, tc.cache)
		}
		if len(got) != p.Limit || stats.CandidateImages <= p.Limit {
			t.Fatalf("%s: %d matches of %d candidates; the fixture must cut", tc.name, len(got), stats.CandidateImages)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: result has cap %d for %d matches", tc.name, cap(got), len(got))
		}
	}
}
