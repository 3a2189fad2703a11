// Command walrus-bench regenerates the tables and figures of the WALRUS
// paper's evaluation (Section 6) and prints them in the paper's layout.
//
// Usage:
//
//	walrus-bench                 # run everything at default scale
//	walrus-bench -exp fig6a      # one experiment
//	walrus-bench -per-category 100 -exp table1
//
// Experiments: fig6a, fig6b, fig7, fig8, table1, regions, matchers,
// robust, precision, indexing, epsilon, parallel, durability,
// obs-overhead, snapshot, shard, serve, all. The shard and serve
// experiments need no dataset: they synthesize their own images and
// write BENCH_shard.json / BENCH_serve.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"walrus/internal/dataset"
	"walrus/internal/experiments"
	"walrus/internal/obscli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("walrus-bench: ")
	var (
		exp         = flag.String("exp", "all", "experiment: fig6a, fig6b, fig7, fig8, table1, regions, matchers, robust, precision, indexing, epsilon, parallel, durability, obs-overhead, explain, snapshot, shard, serve, all")
		imgSize     = flag.Int("image-size", 256, "image side for Figure 6 (paper: 256)")
		maxWin      = flag.Int("max-window", 128, "largest window for Figure 6(a) (paper: 128)")
		maxSig      = flag.Int("max-signature", 32, "largest signature for Figure 6(b) (paper: 32)")
		perCat      = flag.Int("per-category", 40, "dataset images per category for retrieval experiments")
		seed        = flag.Int64("seed", 1999, "dataset seed")
		topK        = flag.Int("k", 14, "result count for Figures 7/8 (paper: 14)")
		regimgs     = flag.Int("region-images", 6, "images sampled for the §6.6 region-count sweep")
		par         = flag.Int("parallelism", 0, "worker pool size for the parallel experiment (0 = GOMAXPROCS)")
		obsOut      = flag.String("obs-json", "BENCH_obs.json", "output file for the obs-overhead measurement")
		explainOut  = flag.String("explain-json", "BENCH_explain.json", "output file for the explain-overhead measurement")
		snapOut     = flag.String("snapshot-json", "BENCH_snapshot.json", "output file for the snapshot churn measurement")
		shardOut    = flag.String("shard-json", "BENCH_shard.json", "output file for the shard write-scaling measurement")
		shardBase   = flag.Int("shard-base", 100000, "preloaded signatures for the shard experiment")
		shardWrites = flag.Int("shard-writes", 300, "timed marginal writes per shard count for the shard experiment")

		serveOut       = flag.String("serve-json", "BENCH_serve.json", "output file for the serve load measurement")
		serveClients   = flag.Int("serve-clients", 1000, "concurrent clients for the serve experiment")
		serveSeconds   = flag.Int("serve-seconds", 5, "load duration for the serve experiment")
		serveWriteFrac = flag.Float64("serve-write-frac", 0.2, "fraction of serve-experiment requests that are ingests")
	)
	obsFlags := obscli.Register()
	flag.Parse()
	reg, obsStop, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer obsStop()
	if !isKnown(*exp) {
		log.Fatalf("unknown experiment %q", *exp)
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

	if want("shard") {
		fmt.Fprintln(out, "== Sharded writes: marginal write throughput vs shard count ==")
		res, err := experiments.ShardScaling(*shardBase, *shardWrites, []int{1, 2, 4})
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintShardScaling(out, res)
		if !res.Identical {
			log.Fatal("sharded query results diverge across shard counts")
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*shardOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote %s\n\n", *shardOut)
	}

	if want("serve") {
		fmt.Fprintf(out, "== Serving: %d concurrent clients, mixed search/ingest load ==\n", *serveClients)
		res, err := experiments.ServeBench(*serveClients, *serveSeconds, *serveWriteFrac)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintServeBench(out, res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*serveOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote %s\n\n", *serveOut)
	}

	needDataset := want("fig7") || want("fig8") || want("table1") || want("regions") || want("matchers") || want("robust") || want("precision") || want("indexing") || want("epsilon") || want("parallel") || want("durability") || want("obs-overhead") || want("explain") || want("snapshot")
	if !needDataset {
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

	if want("parallel") {
		fmt.Fprintln(out, "== Parallel pipeline: ingest speedup and query determinism ==")
		rows, identical, err := experiments.ParallelSpeedup(ds, cfg.Options, *par)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintParallel(out, rows, identical)
		if !identical {
			log.Fatal("parallel and serial query results differ")
		}
		fmt.Fprintln(out)
	}

	if want("obs-overhead") {
		fmt.Fprintln(out, "== Observability overhead: query hot path with registry detached vs attached ==")
		res, err := experiments.ObsOverhead(ds, cfg.Options, 24, 20, 5, reg)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintObsOverhead(out, res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*obsOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote %s\n\n", *obsOut)
	}

	if want("explain") {
		fmt.Fprintln(out, "== EXPLAIN overhead: query hot path with tracing off, live spans, and the funnel accumulator ==")
		res, err := experiments.ExplainOverhead(ds, cfg.Options, 24, 20, 5)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintExplainOverhead(out, res)
		if !res.FunnelConsistent {
			log.Fatal("explain funnel failed its consistency invariants")
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*explainOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote %s\n\n", *explainOut)
	}

	if want("snapshot") {
		fmt.Fprintln(out, "== Snapshot isolation: query latency while the catalog churns ==")
		res, err := experiments.SnapshotChurn(ds, cfg.Options, 24, 60, 4)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintSnapshotChurn(out, res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*snapOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote %s\n\n", *snapOut)
	}

	if want("durability") {
		fmt.Fprintln(out, "== Durability: WAL fsync policy vs ingest throughput ==")
		rows, err := experiments.DurabilitySweep(ds, cfg.Options)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintDurability(out, rows)
		fmt.Fprintln(out)
	}

	if want("indexing") {
		fmt.Fprintln(out, "== Indexing throughput: sequential vs parallel vs STR bulk load ==")
		rows, err := experiments.IndexingThroughput(ds, cfg.Options)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintIndexing(out, rows)
		fmt.Fprintln(out)
	}

	if want("precision") {
		fmt.Fprintln(out, "== Mean precision across systems (WALRUS vs WBIIS vs JFS vs histogram) ==")
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
		n := *regimgs
		if n > len(ds.Items) {
			n = len(ds.Items)
		}
		sample := make([]dataset.Item, 0, n)
		stride := len(ds.Items) / n
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < len(ds.Items) && len(sample) < n; i += stride {
			sample = append(sample, ds.Items[i])
		}
		rows, err := experiments.RegionsPerImage(sample, cfg.Options.Region, []float64{0.025, 0.05, 0.075, 0.1})
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintRegionsPerImage(out, rows)
		fmt.Fprintln(out)
	}
}

func isKnown(e string) bool {
	for _, k := range strings.Fields("fig6a fig6b fig7 fig8 table1 regions matchers robust precision indexing epsilon parallel durability obs-overhead explain snapshot shard serve all") {
		if e == k {
			return true
		}
	}
	return false
}
