package experiments

import (
	"context"
	"fmt"
	"io"

	"walrus/internal/dataset"
	"walrus/internal/wbiis"
)

// PrecisionRow is one system's mean retrieval precision over a set of
// queries.
type PrecisionRow struct {
	System string
	// MeanPrecision averages precision@k over all queries.
	MeanPrecision float64
	// Queries is the number of queries averaged.
	Queries int
}

// MeanPrecision extends the Figure 7/8 comparison from one query to a
// systematic evaluation: for `perCategory` query images drawn from each
// category, WALRUS and WBIIS each retrieve their top k (excluding the
// query itself) and precision against the ground-truth labels is
// averaged. The rows are WALRUS, then WBIIS.
func MeanPrecision(ds *dataset.Dataset, cfg WalrusConfig, queriesPerCategory, k int) ([]PrecisionRow, error) {
	// Select queries: the first few items of each category.
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

	db, err := BuildWalrusDB(ds, cfg.Options)
	if err != nil {
		return nil, err
	}
	wx, err := wbiis.New(wbiis.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, it := range ds.Items {
		if err := wx.Add(it.ID, it.Image); err != nil {
			return nil, err
		}
	}

	precision := func(ids []string, q dataset.Item) float64 {
		if len(ids) == 0 {
			return 0
		}
		related := 0
		for _, id := range ids {
			if dataset.CategoryOf(id) == q.Category {
				related++
			}
		}
		return float64(related) / float64(len(ids))
	}
	topIDs := func(q dataset.Item, fetch func() ([]string, error)) ([]string, error) {
		ids, err := fetch()
		if err != nil {
			return nil, err
		}
		out := ids[:0]
		for _, id := range ids {
			if id == q.ID {
				continue
			}
			out = append(out, id)
			if len(out) == k {
				break
			}
		}
		return out, nil
	}

	sums := map[string]float64{}
	for _, q := range queries {
		// WALRUS.
		p := cfg.Params
		p.Limit = k + 1
		ids, err := topIDs(q, func() ([]string, error) {
			matches, _, err := db.QueryContext(context.Background(), q.Image, p)
			if err != nil {
				return nil, err
			}
			out := make([]string, len(matches))
			for i, m := range matches {
				out[i] = m.ID
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		sums["WALRUS"] += precision(ids, q)

		ids, err = topIDs(q, func() ([]string, error) {
			matches, err := wx.Query(q.Image, k+1)
			if err != nil {
				return nil, err
			}
			out := make([]string, len(matches))
			for i, m := range matches {
				out[i] = m.ID
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		sums["WBIIS"] += precision(ids, q)
	}

	systems := []string{"WALRUS", "WBIIS"}
	rows := make([]PrecisionRow, 0, len(systems))
	for _, s := range systems {
		rows = append(rows, PrecisionRow{
			System:        s,
			MeanPrecision: sums[s] / float64(len(queries)),
			Queries:       len(queries),
		})
	}
	return rows, nil
}

// PrintPrecision renders the cross-system precision table.
func PrintPrecision(w io.Writer, k int, rows []PrecisionRow) {
	fmt.Fprintf(w, "Mean precision@%d against ground-truth categories (%d queries)\n", k, rows[0].Queries)
	fmt.Fprintf(w, "%-12s %16s\n", "system", "mean precision")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %16.3f\n", r.System, r.MeanPrecision)
	}
}
