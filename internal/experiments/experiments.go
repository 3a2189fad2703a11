// Package experiments regenerates every table and figure of the WALRUS
// paper's evaluation (Section 6):
//
//   - Fig6a / Fig6b — wavelet signature computation time, naive vs dynamic
//     programming, as window size and signature size grow;
//   - Fig7 / Fig8 — top-k retrieval for a flower query under WBIIS
//     (whole-image signature) and WALRUS (region signatures), scored as
//     precision against the synthetic dataset's ground-truth labels;
//   - Table1 — query response time, average number of regions retrieved
//     per query region, and number of distinct candidate images as the
//     query epsilon grows;
//   - RegionsPerImage (§6.6) — average number of regions per image as the
//     clustering epsilon εc grows, for YCC vs RGB.
//
// The same functions back the cmd/walrus-bench binary and the testing.B
// benchmarks in the repository root.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"walrus"
	"walrus/internal/colorspace"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/region"
	"walrus/internal/wavelet"
	"walrus/internal/wbiis"
)

// ---------------------------------------------------------------------------
// Figure 6: dynamic programming vs naive signature computation.

// Fig6Row is one point of a Figure 6 series.
type Fig6Row struct {
	// Param is the swept parameter: window size for Fig6a, signature size
	// for Fig6b.
	Param int
	// Naive and DP are the wall-clock times of the two algorithms.
	Naive, DP time.Duration
}

// Speedup returns Naive/DP.
func (r Fig6Row) Speedup() float64 {
	if r.DP == 0 {
		return 0
	}
	return float64(r.Naive) / float64(r.DP)
}

// randomPlane builds the deterministic test image used by Figure 6.
func randomPlane(size int) []float64 {
	rng := rand.New(rand.NewSource(42))
	p := make([]float64, size*size)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// Fig6a reproduces Figure 6(a): fix a size×size image, 2×2 signatures and
// slide 1, and sweep the window size from 2 up to maxWindow. The paper
// used size=256 and maxWindow=128.
func Fig6a(size, maxWindow int) ([]Fig6Row, error) {
	plane := randomPlane(size)
	var rows []Fig6Row
	for win := 2; win <= maxWindow; win *= 2 {
		params := wavelet.SlidingParams{MaxWindow: win, Signature: 2, Step: 1}
		row := Fig6Row{Param: win}
		start := time.Now()
		if _, err := wavelet.ComputeSlidingWindows(plane, size, size, params); err != nil {
			return nil, err
		}
		row.DP = time.Since(start)
		start = time.Now()
		if _, err := wavelet.NaiveWindowSignatures(plane, size, size, win, 2, 1); err != nil {
			return nil, err
		}
		row.Naive = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6b reproduces Figure 6(b): fix the window size and sweep the
// signature size from 2 to maxSig. The paper used window=128, maxSig=32.
func Fig6b(size, window, maxSig int) ([]Fig6Row, error) {
	plane := randomPlane(size)
	var rows []Fig6Row
	for sig := 2; sig <= maxSig; sig *= 2 {
		params := wavelet.SlidingParams{MaxWindow: window, Signature: sig, Step: 1}
		row := Fig6Row{Param: sig}
		start := time.Now()
		if _, err := wavelet.ComputeSlidingWindows(plane, size, size, params); err != nil {
			return nil, err
		}
		row.DP = time.Since(start)
		start = time.Now()
		if _, err := wavelet.NaiveWindowSignatures(plane, size, size, window, sig, 1); err != nil {
			return nil, err
		}
		row.Naive = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig6 renders a Figure 6 series as a table.
func PrintFig6(w io.Writer, title, paramName string, rows []Fig6Row) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", paramName, "naive", "dynamic-prog", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %14s %14s %9.1fx\n", r.Param, r.Naive.Round(time.Microsecond), r.DP.Round(time.Microsecond), r.Speedup())
	}
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: retrieval quality, WBIIS vs WALRUS.

// RetrievalRow is one ranked result.
type RetrievalRow struct {
	Rank     int
	ID       string
	Category dataset.Category
	// Score is system-specific: a distance for WBIIS (lower better), a
	// similarity for WALRUS (higher better).
	Score float64
	// Related reports whether the result shares the query's category.
	Related bool
}

// RetrievalResult is a full top-k answer for one system.
type RetrievalResult struct {
	System  string
	QueryID string
	Rows    []RetrievalRow
}

// Precision returns the fraction of related results.
func (r RetrievalResult) Precision() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if row.Related {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// Fig7 reproduces Figure 7: the top-k images WBIIS returns for a query
// drawn from the dataset (the paper's query was image 866, red flowers on
// green leaves; pass a flowers item). The query image itself is excluded
// from the results, as in the paper's figure which lists the 14 best
// non-query matches.
func Fig7(ds *dataset.Dataset, query dataset.Item, k int) (RetrievalResult, error) {
	ix, err := wbiis.New(wbiis.DefaultOptions())
	if err != nil {
		return RetrievalResult{}, err
	}
	for _, it := range ds.Items {
		if err := ix.Add(it.ID, it.Image); err != nil {
			return RetrievalResult{}, err
		}
	}
	matches, err := ix.Query(query.Image, k+1)
	if err != nil {
		return RetrievalResult{}, err
	}
	res := RetrievalResult{System: "WBIIS", QueryID: query.ID}
	for _, m := range matches {
		if m.ID == query.ID {
			continue
		}
		if len(res.Rows) == k {
			break
		}
		res.Rows = append(res.Rows, RetrievalRow{
			Rank:     len(res.Rows) + 1,
			ID:       m.ID,
			Category: dataset.CategoryOf(m.ID),
			Score:    m.Distance,
			Related:  dataset.CategoryOf(m.ID) == query.Category,
		})
	}
	return res, nil
}

// WalrusConfig bundles the database and query parameters for Fig8/Table1.
type WalrusConfig struct {
	Options walrus.Options
	Params  walrus.QueryParams
}

// PaperWalrusConfig returns the exact parameters Section 6.4 reports for
// Figure 8: fixed 64×64 windows, εc = 0.05, 2×2 signatures per channel
// (12-d points), centroid signatures, ε = 0.085, YCC, quick matcher.
func PaperWalrusConfig() WalrusConfig {
	opts := walrus.DefaultOptions() // already the paper's region options
	params := walrus.DefaultQueryParams()
	return WalrusConfig{Options: opts, Params: params}
}

// BuildWalrusDB indexes a whole dataset into a fresh in-memory DB.
func BuildWalrusDB(ds *dataset.Dataset, opts walrus.Options) (*walrus.DB, error) {
	db, err := walrus.New(opts)
	if err != nil {
		return nil, err
	}
	for _, it := range ds.Items {
		if err := db.Add(it.ID, it.Image); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Fig8 reproduces Figure 8: the top-k images WALRUS returns for the same
// query, under the paper's parameters.
func Fig8(db *walrus.DB, query dataset.Item, params walrus.QueryParams, k int) (RetrievalResult, error) {
	params.Limit = k + 1
	matches, _, err := db.QueryContext(context.Background(), query.Image, params)
	if err != nil {
		return RetrievalResult{}, err
	}
	res := RetrievalResult{System: "WALRUS", QueryID: query.ID}
	for _, m := range matches {
		if m.ID == query.ID {
			continue
		}
		if len(res.Rows) == k {
			break
		}
		res.Rows = append(res.Rows, RetrievalRow{
			Rank:     len(res.Rows) + 1,
			ID:       m.ID,
			Category: dataset.CategoryOf(m.ID),
			Score:    m.Similarity,
			Related:  dataset.CategoryOf(m.ID) == query.Category,
		})
	}
	return res, nil
}

// PrintRetrieval renders a Figure 7/8 style ranked list.
func PrintRetrieval(w io.Writer, res RetrievalResult) {
	fmt.Fprintf(w, "%s top-%d for query %s (precision %.2f)\n", res.System, len(res.Rows), res.QueryID, res.Precision())
	fmt.Fprintf(w, "%-5s %-18s %-10s %10s %8s\n", "rank", "image", "category", "score", "related")
	for _, r := range res.Rows {
		rel := ""
		if r.Related {
			rel = "yes"
		}
		fmt.Fprintf(w, "%-5d %-18s %-10s %10.4f %8s\n", r.Rank, r.ID, r.Category, r.Score, rel)
	}
}

// ---------------------------------------------------------------------------
// Table 1: query response time and selectivity vs epsilon.

// Table1Row is one row of Table 1.
type Table1Row struct {
	Epsilon        float64
	Response       time.Duration
	AvgRegions     float64 // avg matching regions per query region
	DistinctImages int
}

// Table1 runs the query at each epsilon and reports the paper's three
// measurements.
func Table1(db *walrus.DB, query *imgio.Image, base walrus.QueryParams, epsilons []float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, eps := range epsilons {
		p := base
		p.Epsilon = eps
		_, stats, err := db.QueryContext(context.Background(), query, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Epsilon:        eps,
			Response:       stats.Elapsed,
			AvgRegions:     stats.AvgRegionsPerQueryRegion(),
			DistinctImages: stats.CandidateImages,
		})
	}
	return rows, nil
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Query Response Time (Selectivity)")
	fmt.Fprintf(w, "%-14s %16s %22s %18s\n", "epsilon", "response", "avg regions/query-reg", "distinct images")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14.3f %16s %22.1f %18d\n", r.Epsilon, r.Response.Round(10*time.Microsecond), r.AvgRegions, r.DistinctImages)
	}
}

// ---------------------------------------------------------------------------
// Section 6.6: number of regions per image vs clustering epsilon.

// RegionsRow reports the average region count per image at one εc.
type RegionsRow struct {
	ClusterEps float64
	YCC, RGB   float64
}

// RegionsPerImage extracts regions from every item at each εc, in both YCC
// and RGB, and reports the average counts (the paper's §6.6 numbers:
// counts fall as εc grows, and RGB produces roughly 4× more clusters than
// YCC).
func RegionsPerImage(items []dataset.Item, baseOpts region.Options, epsilons []float64) ([]RegionsRow, error) {
	var rows []RegionsRow
	for _, eps := range epsilons {
		row := RegionsRow{ClusterEps: eps}
		for _, space := range []colorspace.Space{colorspace.YCC, colorspace.RGB} {
			opts := baseOpts
			opts.ClusterEps = eps
			opts.Space = space
			ext, err := region.NewExtractor(opts)
			if err != nil {
				return nil, err
			}
			total := 0
			for _, it := range items {
				regions, err := ext.Extract(it.Image)
				if err != nil {
					return nil, err
				}
				total += len(regions)
			}
			avg := float64(total) / float64(len(items))
			if space == colorspace.YCC {
				row.YCC = avg
			} else {
				row.RGB = avg
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintRegionsPerImage renders the §6.6 sweep.
func PrintRegionsPerImage(w io.Writer, rows []RegionsRow) {
	fmt.Fprintln(w, "Section 6.6: average regions per image vs cluster epsilon")
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "cluster eps", "YCC", "RGB", "RGB/YCC")
	for _, r := range rows {
		ratio := 0.0
		if r.YCC > 0 {
			ratio = r.RGB / r.YCC
		}
		fmt.Fprintf(w, "%-14.3f %12.1f %12.1f %11.1fx\n", r.ClusterEps, r.YCC, r.RGB, ratio)
	}
}

// ---------------------------------------------------------------------------
// Matcher ablation (design-choice bench called out in DESIGN.md).

// MatcherRow compares the three image-matching algorithms on one query.
type MatcherRow struct {
	Algorithm  match.Algorithm
	Response   time.Duration
	TopID      string
	Similarity float64
}

// MatcherAblation runs the same query under quick, greedy and exact
// matching.
func MatcherAblation(db *walrus.DB, query *imgio.Image, base walrus.QueryParams) ([]MatcherRow, error) {
	var rows []MatcherRow
	for _, alg := range []match.Algorithm{match.Quick, match.Greedy, match.Exact, match.Assignment} {
		p := base
		p.Matcher = alg
		p.Limit = 1
		matches, stats, err := db.QueryContext(context.Background(), query, p)
		if err != nil {
			return nil, err
		}
		row := MatcherRow{Algorithm: alg, Response: stats.Elapsed}
		if len(matches) > 0 {
			row.TopID = matches[0].ID
			row.Similarity = matches[0].Similarity
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintMatcherAblation renders the matcher comparison.
func PrintMatcherAblation(w io.Writer, rows []MatcherRow) {
	fmt.Fprintln(w, "Ablation: image-matching algorithm")
	fmt.Fprintf(w, "%-10s %14s %-18s %12s\n", "matcher", "response", "top match", "similarity")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %14s %-18s %12.4f\n", r.Algorithm, r.Response.Round(10*time.Microsecond), r.TopID, r.Similarity)
	}
}
