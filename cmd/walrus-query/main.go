// Command walrus-query runs a similarity query against a disk-backed
// WALRUS index built by walrus-index.
//
// Usage:
//
//	walrus-query -index idx/ -image data/flowers-0003.ppm -eps 0.085 -k 14
//
// The query image may be PPM/PGM (decoded natively) or PNG/JPEG/GIF
// (decoded with the standard library).
package main

import (
	"context"
	"flag"
	"fmt"
	"image"
	_ "image/gif"
	_ "image/jpeg"
	_ "image/png"
	"log"
	"os"
	"strings"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/obscli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("walrus-query: ")
	var (
		index   = flag.String("index", "idx", "index directory")
		imgPath = flag.String("image", "", "query image path (PPM, PNG, JPEG or GIF)")
		eps     = flag.Float64("eps", 0.085, "matching epsilon")
		tau     = flag.Float64("tau", 0, "similarity threshold")
		k       = flag.Int("k", 14, "number of results")
		matcher = flag.String("matcher", "quick", "image matcher: quick, greedy, exact or assignment")
		sceneXY = flag.String("scene", "", "query with a sub-rectangle only: x,y,w,h (user-specified scene)")
		durable = flag.String("durability", "", "override the index's WAL durability policy for this run: always, group or none (the next open restores the policy the index was created with)")
		explain = flag.Bool("explain", false, "print the stage-by-stage candidate funnel after the results")
		cacheSz = flag.Int("cache-size", 0, "result cache capacity in queries (0 disables)")
		repeat  = flag.Int("repeat", 1, "run the query N times (with -cache-size, later runs hit the cache)")
	)
	obsFlags := obscli.Register()
	logFlags := obscli.RegisterLog()
	flag.Parse()
	if *imgPath == "" {
		log.Fatal("missing -image")
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	reg, obsStop, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer obsStop()

	im, err := loadImage(*imgPath)
	if err != nil {
		log.Fatal(err)
	}
	db, err := openIndex(*index, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if *durable != "" {
		pol, err := walrus.ParseDurability(*durable)
		if err != nil {
			log.Fatal(err)
		}
		db.SetDurability(pol)
	}

	if *cacheSz > 0 {
		db.SetCacheSize(*cacheSz)
	}

	params := walrus.DefaultQueryParams()
	params.Epsilon = *eps
	params.Tau = *tau
	params.Limit = *k
	switch *matcher {
	case "quick":
		params.Matcher = match.Quick
	case "greedy":
		params.Matcher = match.Greedy
	case "exact":
		params.Matcher = match.Exact
	case "assignment":
		params.Matcher = match.Assignment
	default:
		log.Fatalf("unknown matcher %q", *matcher)
	}

	ctx := context.Background()
	var qt *walrus.QueryTrace
	if *explain || logFlags.SlowQueryMS > 0 {
		ctx, qt = walrus.WithQueryTrace(ctx)
	}
	var x, y, w, h int
	if *sceneXY != "" {
		if _, err := fmt.Sscanf(*sceneXY, "%d,%d,%d,%d", &x, &y, &w, &h); err != nil {
			log.Fatalf("bad -scene %q: %v", *sceneXY, err)
		}
	}
	var matches []walrus.Match
	var stats walrus.QueryStats
	for run := 0; run < *repeat; run++ {
		if *sceneXY != "" {
			matches, stats, err = db.QuerySceneContext(ctx, im, x, y, w, h, params)
		} else {
			matches, stats, err = db.QueryContext(ctx, im, params)
		}
		if err != nil {
			log.Fatal(err)
		}
		if *repeat > 1 {
			outcome := stats.Cache
			if outcome == "" {
				outcome = "uncached"
			}
			fmt.Printf("run %d: %s, %s\n", run+1, outcome, stats.Elapsed)
		}
	}
	fmt.Printf("query: %d regions, %d matching regions over %d candidate images, %s\n",
		stats.QueryRegions, stats.RegionsRetrieved, stats.CandidateImages, stats.Elapsed)
	fmt.Printf("%-5s %-24s %12s %10s\n", "rank", "image", "similarity", "regions")
	for i, m := range matches {
		fmt.Printf("%-5d %-24s %12.4f %10d\n", i+1, m.ID, m.Similarity, m.MatchingRegions)
	}
	if *explain {
		printExplain(qt)
	}
	if logFlags.SlowQueryMS > 0 && stats.Elapsed >= logFlags.SlowQueryThreshold() {
		logger.Warn("slow query",
			"trace", qt.TraceID,
			"elapsed", stats.Elapsed,
			"epsilon", qt.Params.Epsilon,
			"tau", qt.Params.Tau,
			"query_regions", qt.QueryRegions,
			"regions_retrieved", stats.RegionsRetrieved,
			"candidates", stats.CandidateImages,
			"matches", qt.Matches)
	}
}

// printExplain renders the candidate funnel as a table: one row per
// pipeline stage, then one per shard when the index is sharded.
func printExplain(qt *walrus.QueryTrace) {
	fmt.Printf("\nexplain: %d query regions", qt.QueryRegions)
	if qt.TraceID != "" {
		fmt.Printf(", trace %s", qt.TraceID)
	}
	fmt.Printf("\n%-10s %8s %8s %11s %7s %11s %7s %12s\n", "stage", "in", "out", "index_hits", "nodes", "entry_tests", "scored", "time")
	for _, st := range qt.Stages {
		hits, nodes, tests, scored := "-", "-", "-", "-"
		switch st.Stage {
		case "probe":
			hits = fmt.Sprintf("%d", st.IndexHits)
			nodes = fmt.Sprintf("%d", st.NodesVisited)
			tests = fmt.Sprintf("%d", st.EntryTests)
		case "delta":
			tests = fmt.Sprintf("%d", st.EntryTests)
		case "score":
			scored = fmt.Sprintf("%d", st.Scored)
		}
		fmt.Printf("%-10s %8d %8d %11s %7s %11s %7s %12s\n",
			st.Stage, st.In, st.Out, hits, nodes, tests, scored, time.Duration(st.DurationNS))
	}
	if qt.Sharded {
		fmt.Printf("\n%-6s %8s %11s %7s %10s %11s %7s %8s %12s %12s\n",
			"shard", "version", "index_hits", "nodes", "retrieved", "candidates", "scored", "matches", "probe", "score")
		for _, sh := range qt.Shards {
			fmt.Printf("%-6d %8d %11d %7d %10d %11d %7d %8d %12s %12s\n",
				sh.Shard, sh.Version, sh.IndexHits, sh.NodesVisited, sh.RegionsRetrieved,
				sh.CandidateImages, sh.Scored, sh.Matches, time.Duration(sh.ProbeNS), time.Duration(sh.ScoreNS))
		}
	}
}

// openIndex opens an index directory of any shard count and reports any
// WAL replay the reopen performed, per shard on a multi-shard index.
func openIndex(dir string, reg *obs.Registry) (*walrus.DB, error) {
	db, err := walrus.Open(dir)
	if err != nil {
		return nil, err
	}
	db.SetMetrics(reg)
	reports, _ := db.Recovery()
	for i, stats := range reports {
		if !stats.Replayed {
			continue
		}
		what := "index"
		if len(reports) > 1 {
			what = fmt.Sprintf("shard %d", i)
		}
		fmt.Fprintf(os.Stderr, "recovered %s: %d records replayed, %d torn tail bytes discarded\n",
			what, stats.RecordsScanned, stats.TornBytes)
	}
	return db, nil
}

func loadImage(path string) (*imgio.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //walrus:lint-ignore errsink file opened read-only; close errors cannot lose data
	if strings.HasSuffix(path, ".ppm") || strings.HasSuffix(path, ".pgm") {
		return imgio.DecodePPM(f)
	}
	std, _, err := image.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return imgio.FromStdImage(std), nil
}
