// Command walrus-bench regenerates the tables and figures of the WALRUS
// paper's evaluation (Section 6) and prints them in the paper's layout.
//
// Usage:
//
//	walrus-bench                 # run everything at default scale
//	walrus-bench -exp fig6a      # one experiment
//	walrus-bench -per-category 100 -exp table1
//
// Run walrus-bench -h for the experiment list.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"walrus/internal/dataset"
	"walrus/internal/experiments"
)

// experimentNames lists every -exp value; it drives both the flag's help
// text and its validation.
var experimentNames = []string{"fig6a", "fig6b", "fig7", "fig8", "table1", "regions", "matchers", "robust", "precision", "indexing", "epsilon", "all"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("walrus-bench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, ", "))
		imgSize = flag.Int("image-size", 256, "image side for Figure 6 (paper: 256)")
		maxWin  = flag.Int("max-window", 128, "largest window for Figure 6(a) (paper: 128)")
		maxSig  = flag.Int("max-signature", 32, "largest signature for Figure 6(b) (paper: 32)")
		perCat  = flag.Int("per-category", 40, "dataset images per category for retrieval experiments")
		seed    = flag.Int64("seed", 1999, "dataset seed")
		topK    = flag.Int("k", 14, "result count for Figures 7/8 (paper: 14)")
		regimgs = flag.Int("region-images", 6, "images sampled for the §6.6 region-count sweep")
	)
	flag.Parse()
	if !slices.Contains(experimentNames, *exp) {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err := checkCounts(*perCat, *topK, *regimgs); err != nil {
		fmt.Fprintf(os.Stderr, "walrus-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }
	out := os.Stdout

	if want("fig6a") {
		fmt.Fprintf(out, "== Figure 6(a): signature computation vs window size (image %dx%d, s=2, t=1) ==\n", *imgSize, *imgSize)
		rows, err := experiments.Fig6a(*imgSize, *maxWin)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintFig6(out, "", "window", rows)
		fmt.Fprintln(out)
	}
	if want("fig6b") {
		fmt.Fprintf(out, "== Figure 6(b): signature computation vs signature size (image %dx%d, window %d, t=1) ==\n", *imgSize, *imgSize, *maxWin)
		rows, err := experiments.Fig6b(*imgSize, *maxWin, *maxSig)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintFig6(out, "", "signature", rows)
		fmt.Fprintln(out)
	}

	if *exp == "fig6a" || *exp == "fig6b" {
		return
	}
	fmt.Fprintf(out, "generating dataset: %d categories x %d images (seed %d)...\n",
		len(dataset.Categories()), *perCat, *seed)
	opts := dataset.DefaultOptions()
	opts.Seed = *seed
	opts.PerCategory = *perCat
	ds, err := dataset.Generate(opts)
	if err != nil {
		log.Fatal(err)
	}
	flowers := ds.ByCategory(dataset.Flowers)
	if len(flowers) == 0 {
		log.Fatal("dataset has no flower images")
	}
	// The paper's query 866 is "red flowers with green leaves"; any flowers
	// item plays that role.
	query := flowers[0]
	fmt.Fprintf(out, "query image: %s (%s)\n\n", query.ID, query.Category)

	if want("fig7") {
		fmt.Fprintln(out, "== Figure 7: images found by WBIIS (single whole-image signature) ==")
		res, err := experiments.Fig7(ds, query, *topK)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintRetrieval(out, res)
		fmt.Fprintln(out)
	}

	cfg := experiments.PaperWalrusConfig()
	if want("fig8") || want("table1") || want("matchers") || want("epsilon") {
		fmt.Fprintln(out, "building WALRUS index (paper parameters: 64x64 windows, eps_c=0.05, 2x2 signatures, YCC)...")
		start := time.Now()
		wdb, err := experiments.BuildWalrusDB(ds, cfg.Options)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "indexed %d images, %d regions in %s\n\n", wdb.Len(), wdb.NumRegions(), time.Since(start).Round(time.Millisecond))

		if want("fig8") {
			fmt.Fprintln(out, "== Figure 8: images found by WALRUS (region signatures, YCC) ==")
			res, err := experiments.Fig8(wdb, query, cfg.Params, *topK)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintRetrieval(out, res)
			fmt.Fprintln(out)
		}
		if want("table1") {
			fmt.Fprintln(out, "== Table 1: query response time and selectivity vs epsilon ==")
			rows, err := experiments.Table1(wdb, query.Image, cfg.Params, []float64{0.05, 0.06, 0.07, 0.08, 0.09})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintTable1(out, rows)
			fmt.Fprintln(out)
		}
		if want("epsilon") {
			fmt.Fprintln(out, "== Querying-epsilon sweep: precision vs selectivity ==")
			rows, err := experiments.EpsilonSweep(wdb, ds, 2, *topK, []float64{0.05, 0.065, 0.085, 0.12, 0.2})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintEpsilonSweep(out, *topK, rows)
			fmt.Fprintln(out)
		}
		if want("matchers") {
			fmt.Fprintln(out, "== Ablation: quick vs greedy vs exact image matching ==")
			rows, err := experiments.MatcherAblation(wdb, query.Image, cfg.Params)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintMatcherAblation(out, rows)
			fmt.Fprintln(out)
		}
	}

	if want("indexing") {
		fmt.Fprintln(out, "== Indexing throughput: sequential vs parallel vs packed bulk load ==")
		rows, err := experiments.IndexingThroughput(ds, cfg.Options)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintIndexing(out, rows)
		fmt.Fprintln(out)
	}

	if want("precision") {
		fmt.Fprintln(out, "== Mean precision across systems (WALRUS vs WBIIS) ==")
		rows, err := experiments.MeanPrecision(ds, cfg, 2, *topK)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintPrecision(out, *topK, rows)
		fmt.Fprintln(out)
	}

	if want("robust") {
		fmt.Fprintln(out, "== Robustness: transformed-query rank of the original, WALRUS vs WBIIS ==")
		rows, err := experiments.Robustness(ds, cfg, query)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintRobustness(out, query.ID, rows)
		fmt.Fprintln(out)
	}

	if want("regions") {
		fmt.Fprintln(out, "== Section 6.6: regions per image vs cluster epsilon (YCC vs RGB) ==")
		rows, err := experiments.RegionsPerImage(sampleEvenly(ds.Items, *regimgs), cfg.Options.Region, []float64{0.025, 0.05, 0.075, 0.1})
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintRegionsPerImage(out, rows)
		fmt.Fprintln(out)
	}
}

// checkCounts rejects the count flags below 1: each sizes a dataset, a
// result list or a sample, and none has a meaningful zero.
func checkCounts(perCategory, k, regionImages int) error {
	switch {
	case perCategory < 1:
		return errors.New("-per-category must be at least 1")
	case k < 1:
		return errors.New("-k must be at least 1")
	case regionImages < 1:
		return errors.New("-region-images must be at least 1")
	}
	return nil
}

// sampleEvenly picks up to n items spread at a fixed stride across items.
func sampleEvenly(items []dataset.Item, n int) []dataset.Item {
	n = min(n, len(items))
	if n < 1 {
		return nil
	}
	stride := len(items) / n
	sample := make([]dataset.Item, 0, n)
	for i := 0; len(sample) < n; i += stride {
		sample = append(sample, items[i])
	}
	return sample
}
