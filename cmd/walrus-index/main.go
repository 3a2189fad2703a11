// Command walrus-index builds a disk-backed WALRUS index over a dataset
// directory produced by walrus-gen (or any directory of PPM files with a
// labels.tsv).
//
// Usage:
//
//	walrus-index -data data/ -index idx/ -window 64 -cluster-eps 0.05
//	walrus-index -data data/ -index idx/ -shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"walrus"
	"walrus/internal/colorspace"
	"walrus/internal/dataset"
	"walrus/internal/obscli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("walrus-index: ")
	var (
		data       = flag.String("data", "data", "dataset directory (from walrus-gen)")
		index      = flag.String("index", "idx", "index directory to create")
		window     = flag.Int("window", 64, "sliding window size (power of two)")
		minWindow  = flag.Int("min-window", 0, "smallest window size (default: same as -window)")
		sig        = flag.Int("signature", 2, "signature side s (power of two)")
		step       = flag.Int("step", 8, "sliding step t (power of two)")
		clusterEps = flag.Float64("cluster-eps", 0.05, "BIRCH clustering epsilon")
		space      = flag.String("space", "YCC", "color space (RGB, YCC, YIQ, YUV, HSV, XYZ)")
		bbox       = flag.Bool("bbox", false, "index signature bounding boxes instead of centroids")
		merge      = flag.Bool("merge-regions", false, "agglomeratively merge clusters after BIRCH")
		refine     = flag.Int("refine-iterations", 0, "centroid refinement passes after clustering")
		fineSig    = flag.Int("fine-signature", 0, "store finer NxN signatures for the refined matching phase (0 = off)")
		durability = flag.String("durability", "group", "WAL durability policy: always, group or none")
		shards     = flag.Int("shards", 1, "partition the index into N hash shards for parallel writes")
	)
	obsFlags := obscli.Register()
	flag.Parse()
	reg, obsStop, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer obsStop()

	sp, err := colorspace.Parse(*space)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := walrus.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	opts := walrus.DefaultOptions()
	opts.Region.MaxWindow = *window
	opts.Region.MinWindow = *window
	if *minWindow > 0 {
		opts.Region.MinWindow = *minWindow
	}
	opts.Region.Signature = *sig
	opts.Region.Step = *step
	opts.Region.ClusterEps = *clusterEps
	opts.Region.Space = sp
	opts.Region.MergeRegions = *merge
	opts.Region.RefineIterations = *refine
	opts.Region.FineSignature = *fineSig
	opts.UseBBox = *bbox
	opts.Durability = pol

	ds, err := dataset.Load(*data)
	if err != nil {
		log.Fatal(err)
	}
	opts.Shards = *shards
	db, err := walrus.Create(*index, opts)
	if err != nil {
		log.Fatal(err)
	}
	db.SetMetrics(reg)
	start := time.Now()
	// Extract regions in parallel; insertion order stays deterministic.
	const chunk = 100
	items := make([]walrus.BatchItem, 0, chunk)
	for i, it := range ds.Items {
		items = append(items, walrus.BatchItem{ID: it.ID, Image: it.Image})
		if len(items) == chunk || i == len(ds.Items)-1 {
			if err := db.AddBatch(items, 0); err != nil {
				log.Fatalf("indexing: %v", err)
			}
			items = items[:0]
			fmt.Fprintf(os.Stderr, "  indexed %d/%d images\n", i+1, len(ds.Items))
		}
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d images (%d regions) into %s in %s\n",
		len(ds.Items), dbRegions(*index), *index, time.Since(start).Round(time.Millisecond))
}

// dbRegions reopens the index briefly to report the region count. A
// dirty reopen (crash during a previous run) also reports what recovery
// replayed — per shard, since each shard replays its own WAL.
func dbRegions(dir string) int {
	db, err := walrus.Open(dir)
	if err != nil {
		return 0
	}
	// Read-only reopen: a close error here cannot lose index data, but
	// surface it anyway rather than silently eating it.
	defer func() {
		if cerr := db.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "  closing reopened index: %v\n", cerr)
		}
	}()
	reports, _ := db.Recovery()
	for i, stats := range reports {
		if !stats.Replayed {
			continue
		}
		what := "index"
		if len(reports) > 1 {
			what = fmt.Sprintf("shard %d", i)
		}
		fmt.Fprintf(os.Stderr,
			"  recovered %s: %d records scanned, %d pages reapplied, %d torn tail bytes discarded\n",
			what, stats.RecordsScanned, stats.PagesApplied, stats.TornBytes)
	}
	return db.NumRegions()
}
