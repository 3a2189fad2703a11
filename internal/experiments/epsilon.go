package experiments

import (
	"context"
	"fmt"
	"io"

	"walrus"
	"walrus/internal/dataset"
)

// EpsilonRow reports retrieval quality and work at one querying epsilon.
type EpsilonRow struct {
	Epsilon       float64
	MeanPrecision float64
	// AvgRegions and AvgImages are the Table 1 selectivity quantities
	// averaged over the query set.
	AvgRegions float64
	AvgImages  float64
}

// EpsilonSweep studies the quality/selectivity trade of the querying
// epsilon (Definition 4.1), which the paper only examines on the cost side
// (Table 1): for each ε it measures mean precision@k over queries from
// every category alongside the average index selectivity. Small ε starves
// recall; large ε floods the matcher with unrelated candidates.
func EpsilonSweep(db *walrus.DB, ds *dataset.Dataset, queriesPerCategory, k int, epsilons []float64) ([]EpsilonRow, error) {
	var queries []dataset.Item
	for _, cat := range dataset.Categories() {
		items := ds.ByCategory(cat)
		for i := 0; i < queriesPerCategory && i < len(items); i++ {
			queries = append(queries, items[i])
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("experiments: dataset has no queries")
	}
	var rows []EpsilonRow
	for _, eps := range epsilons {
		p := walrus.DefaultQueryParams()
		p.Epsilon = eps
		p.Limit = k + 1
		row := EpsilonRow{Epsilon: eps}
		for _, q := range queries {
			matches, stats, err := db.QueryContext(context.Background(), q.Image, p)
			if err != nil {
				return nil, err
			}
			related, total := 0, 0
			for _, m := range matches {
				if m.ID == q.ID {
					continue
				}
				total++
				if total > k {
					break
				}
				if dataset.CategoryOf(m.ID) == q.Category {
					related++
				}
			}
			if total > k {
				total = k
			}
			if total > 0 {
				row.MeanPrecision += float64(related) / float64(total)
			}
			row.AvgRegions += stats.AvgRegionsPerQueryRegion()
			row.AvgImages += float64(stats.CandidateImages)
		}
		n := float64(len(queries))
		row.MeanPrecision /= n
		row.AvgRegions /= n
		row.AvgImages /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintEpsilonSweep renders the sweep.
func PrintEpsilonSweep(w io.Writer, k int, rows []EpsilonRow) {
	fmt.Fprintf(w, "Querying-epsilon sweep: precision@%d vs selectivity\n", k)
	fmt.Fprintf(w, "%-10s %16s %16s %14s\n", "epsilon", "mean precision", "regions/query", "images/query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10.3f %16.3f %16.1f %14.1f\n", r.Epsilon, r.MeanPrecision, r.AvgRegions, r.AvgImages)
	}
}
