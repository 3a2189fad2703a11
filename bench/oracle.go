package main

import (
	"fmt"
	"math"
	"sort"

	"walrus"
	"walrus/internal/match"
	"walrus/internal/region"
)

// regionSource is the part of DB and Sharded the oracle reads.
type regionSource interface {
	RegionsOf(id string) ([]region.Region, bool)
}

// oracleImage is one indexed image as the oracle sees it: the regions
// the database reports for it and the pixel area the harness rendered.
type oracleImage struct {
	id      string
	regions []region.Region
	area    int
}

// oracle answers a query by linear scan: every image's region pairs via
// match.PairsWithin and its similarity via match.Score, with no index,
// snapshot or cache in the way. A database result that differs is wrong.
type oracle struct {
	images []oracleImage
	byID   map[string]int
}

// newOracle reads the regions of every id from src. areas maps each id
// to its pixel area.
func newOracle(src regionSource, ids []string, areas map[string]int) (*oracle, error) {
	o := &oracle{byID: make(map[string]int, len(ids))}
	for _, id := range ids {
		regions, ok := src.RegionsOf(id)
		if !ok {
			return nil, fmt.Errorf("oracle: no regions for indexed id %s", id)
		}
		o.byID[id] = len(o.images)
		o.images = append(o.images, oracleImage{id: id, regions: regions, area: areas[id]})
	}
	return o, nil
}

// query ranks the whole collection against the query regions exactly as
// the database defines its result: similarity descending, id ascending,
// cut at p.Limit.
func (o *oracle) query(q []region.Region, qArea int, p walrus.QueryParams) ([]walrus.Match, error) {
	opts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	var out []walrus.Match
	for _, t := range o.images {
		pairs := match.PairsWithin(q, t.regions, p.Epsilon)
		if len(pairs) == 0 {
			continue
		}
		res, err := match.Score(q, t.regions, pairs, qArea, t.area, opts)
		if err != nil {
			return nil, err
		}
		if res.Similarity >= p.Tau {
			out = append(out, walrus.Match{ID: t.id, Similarity: res.Similarity, MatchingRegions: len(pairs)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].ID < out[j].ID
	})
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	return out, nil
}

// queryByID is query with an indexed image's own regions.
func (o *oracle) queryByID(id string, p walrus.QueryParams) ([]walrus.Match, error) {
	i, ok := o.byID[id]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown id %s", id)
	}
	return o.query(o.images[i].regions, o.images[i].area, p)
}

// diffMatches describes the first difference between a database result
// and the oracle's, or returns "" when they agree.
func diffMatches(got, want []walrus.Match) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Similarity-want[i].Similarity) > 1e-12 {
			return fmt.Sprintf("rank %d: got %s/%.6f, oracle %s/%.6f", i+1, got[i].ID, got[i].Similarity, want[i].ID, want[i].Similarity)
		}
	}
	return ""
}

// precisionAt10 is the fraction of the top 10 that share the query's
// category; a result shorter than 10 counts its missing ranks as misses.
func precisionAt10(ids []string, cat string) float64 {
	hit := 0
	for i, id := range ids {
		if i == 10 {
			break
		}
		if categoryOf(id) == cat {
			hit++
		}
	}
	return float64(hit) / 10
}
