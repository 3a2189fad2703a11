package experiments

import (
	"fmt"
	"io"
	"time"

	"walrus"
	"walrus/internal/dataset"
)

// IndexingRow reports one indexing strategy's cost over the same dataset.
type IndexingRow struct {
	Method  string
	Images  int
	Regions int
	Elapsed time.Duration
}

// IndexingThroughput measures the three ways of building a WALRUS
// database over the same collection: one Add per image, parallel batched
// extraction (AddBatch), and parallel extraction plus packed bulk loading
// of the R*-tree (BuildFrom). The paper's indexing phase runs "only once at
// the beginning and when new images are added" — this quantifies that
// one-time cost and the ablation between incremental and packed index
// construction.
func IndexingThroughput(ds *dataset.Dataset, opts walrus.Options) ([]IndexingRow, error) {
	items := make([]walrus.BatchItem, len(ds.Items))
	for i, it := range ds.Items {
		items[i] = walrus.BatchItem{ID: it.ID, Image: it.Image}
	}
	var rows []IndexingRow

	start := time.Now()
	inc, err := walrus.New(opts)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := inc.Add(it.ID, it.Image); err != nil {
			return nil, err
		}
	}
	rows = append(rows, IndexingRow{"sequential Add", inc.Len(), inc.NumRegions(), time.Since(start)})

	start = time.Now()
	batch, err := walrus.New(opts)
	if err != nil {
		return nil, err
	}
	if err := batch.AddBatch(items, 0); err != nil {
		return nil, err
	}
	rows = append(rows, IndexingRow{"parallel AddBatch", batch.Len(), batch.NumRegions(), time.Since(start)})

	start = time.Now()
	bulk, err := walrus.BuildFrom(opts, items, 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, IndexingRow{"BuildFrom (packed bulk load)", bulk.Len(), bulk.NumRegions(), time.Since(start)})
	return rows, nil
}

// PrintIndexing renders the indexing comparison.
func PrintIndexing(w io.Writer, rows []IndexingRow) {
	fmt.Fprintln(w, "Indexing throughput over the same collection")
	fmt.Fprintf(w, "%-28s %8s %9s %14s\n", "method", "images", "regions", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %9d %14s\n", r.Method, r.Images, r.Regions, r.Elapsed.Round(time.Millisecond))
	}
}
