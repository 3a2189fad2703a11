package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"walrus"
	"walrus/internal/dataset"
	"walrus/internal/obs"
	"walrus/internal/region"
)

// queryState is the loaded database a query workload reads.
type queryState struct {
	db  *walrus.DB
	dir string
}

func (st queryState) discard() error {
	return errors.Join(st.db.Close(), removeAll(st.dir))
}

// pendingCheck is a query result kept for comparison with the oracle
// after the measured phase, so the oracle's copy of the regions is not
// on the heap while heap_mb is taken.
type pendingCheck struct {
	q   int    // query_pixels: variant number
	id  string // query_stored_disk: queried id
	got []walrus.Match
}

// runQuery runs query_pixels (stored=false) or query_stored_disk.
func runQuery(cfg runConfig, stored bool) (*result, error) {
	res := newResult(cfg)
	opts := walrus.DefaultOptions()
	cp := corpus{seed: cfg.Seed, stream: 2, sizes: paperSizes}
	var err error
	if res.CorpusHash, err = cp.hash(); err != nil {
		return nil, err
	}
	areas := make(map[string]int, queryCorpus)

	// Set-up: bulk-load the corpus, and for the stored workload close and
	// reopen so queries start from disk.
	build := func() (queryState, time.Duration, error) {
		var st queryState
		var sw stopwatch
		if stored {
			if st.dir, err = cfg.tempDir("db"); err != nil {
				return st, 0, err
			}
		}
		// The whole corpus goes in at once, 0.8 GB of pixels for the length
		// of the call: STR packing needs every region up front, and a tree
		// grown by inserts instead came out 20% better or worse from seed
		// to seed, which every query metric then followed.
		items := cp.batch(0, queryCorpus)
		for _, it := range items {
			areas[it.ID] = it.area()
		}
		err := sw.time(func() (err error) {
			if stored {
				st.db, err = walrus.CreateFrom(st.dir, opts, batchItems(items), 0)
			} else {
				st.db, err = walrus.BuildFrom(opts, batchItems(items), 0)
			}
			return err
		})
		if err != nil {
			return st, 0, err
		}
		if stored {
			err := sw.time(func() (err error) {
				if err = st.db.Close(); err != nil {
					return err
				}
				st.db, err = walrus.Open(st.dir)
				return err
			})
			if err != nil {
				return st, 0, err
			}
		}
		return st, sw.total, nil
	}
	st, setupS, err := setupMedian(cfg.setups(), build, queryState.discard)
	if err != nil {
		return nil, err
	}
	db := st.db
	res.Metrics["setup_s"] = setupS

	ext, err := region.NewExtractor(opts.Region)
	if err != nil {
		return nil, err
	}
	var orc *oracle
	buildOracle := func() error {
		orc, err = newOracle(db, db.IDs(), areas)
		return err
	}

	n := cfg.ops()
	var (
		rec                            *recorder
		lp                             *layerProbe
		pi                             *probeIndex
		reg                            *obs.Registry
		traced                         []float64
		retrieved, candidates, rawHits float64
		tracedQueries, replayedQueries int
	)
	if cfg.Trace {
		n = 2 * n / traceOpsShare
		rec = newRecorder()
		reg = obs.NewRegistry()
		if lp, err = newLayerProbe(rec, opts); err != nil {
			return nil, err
		}
		if err := buildOracle(); err != nil {
			return nil, err
		}
		if pi, err = indexOracle(orc, opts); err != nil {
			return nil, err
		}
	}

	p := queryParams()
	var lat, precisions []float64
	var checks []pendingCheck
	var variants []item
	runtime.GC()
	phase := time.Now()
	for k := 0; k < n; k++ {
		if k%traceBlockOps == 0 {
			if cfg.overdue() {
				res.Ops["cut_short_at"] = k
				break
			}
			if cfg.tracedOp(k) {
				db.SetMetrics(reg)
			} else {
				db.SetMetrics(nil)
			}
		}
		tracing := cfg.tracedOp(k)
		var q item
		if stored {
			q.ID = cp.id(cp.pick(k, queryCorpus))
			q.Cat = dataset.CategoryOf(q.ID)
		} else {
			if k%batchSize == 0 {
				variants = variants[:0]
				for j := k; j < min(k+batchSize, n); j++ {
					v, err := cp.variant(j, queryCorpus)
					if err != nil {
						return nil, err
					}
					variants = append(variants, v)
				}
			}
			q = variants[k%batchSize]
		}
		ctx := context.Background()
		var qt *walrus.QueryTrace
		var opSpan int
		if tracing {
			ctx, qt = walrus.WithQueryTrace(ctx)
			opSpan = rec.start("walrus.query", 0, k+1)
		}
		var got []walrus.Match
		var stats walrus.QueryStats
		t := time.Now()
		if stored {
			got, stats, err = db.QueryByID(ctx, q.ID, p)
		} else {
			got, stats, err = db.QueryContext(ctx, q.Image, p)
		}
		ms := msSince(t)
		if tracing {
			rec.end(opSpan)
		}
		res.check(err, fmt.Sprintf("query %d %s", k, q.ID))
		if err != nil {
			continue
		}
		precisions = append(precisions, precisionAt10(matchIDs(got), string(q.Cat)))
		if k%oracleEvery == 0 {
			checks = append(checks, pendingCheck{q: k, id: q.ID, got: got})
		}
		if !tracing {
			lat = append(lat, ms)
			continue
		}
		traced = append(traced, ms)
		tracedQueries++
		retrieved += float64(stats.RegionsRetrieved)
		candidates += float64(stats.CandidateImages)
		for _, s := range qt.Stages {
			if s.Stage == "probe" {
				rawHits += float64(s.IndexHits)
			}
		}
		if tracedQueries%replayEvery != 0 {
			continue
		}
		replayedQueries++
		var qRegions []region.Region
		qArea := 0
		if stored {
			img := orc.images[orc.byID[q.ID]]
			qRegions, qArea = img.regions, img.area
		} else {
			if qRegions, err = lp.extract(q.Image, opSpan, k+1); err != nil {
				return nil, err
			}
			qArea = q.area()
		}
		if err := lp.probeAndScore(orc, pi, qRegions, qArea, p, opSpan, k+1); err != nil {
			return nil, err
		}
	}
	var counter map[string]uint64
	if cfg.Trace {
		db.SetMetrics(reg) // the last block may have been an untraced one
		counter = db.Metrics().Counters
		db.SetMetrics(nil)
	}
	res.PhaseS = time.Since(phase).Seconds()
	res.Ops["measured"] = len(lat) + len(traced)
	res.Metrics["heap_mb"] = heapMB(db)
	res.setTimings(lat)
	res.Metrics["precision_at_10"] = mean(precisions)
	res.Samples["precision_at_10"] = len(precisions)

	// Every 50th result against the linear scan.
	if orc == nil {
		if err := buildOracle(); err != nil {
			return nil, err
		}
	}
	for _, c := range checks {
		var want []walrus.Match
		if stored {
			want, err = orc.queryByID(c.id, p)
		} else {
			var v item
			if v, err = cp.variant(c.q, queryCorpus); err != nil {
				return nil, err
			}
			var qRegions []region.Region
			if qRegions, err = ext.Extract(v.Image); err != nil {
				return nil, err
			}
			want, err = orc.query(qRegions, v.area(), p)
		}
		if err != nil {
			return nil, err
		}
		failure := diffMatches(c.got, want)
		if failure != "" {
			failure = fmt.Sprintf("query %d %s: %s", c.q, c.id, failure)
		}
		res.attempt(failure)
	}
	res.Ops["oracle_checks"] = len(checks)

	if cfg.Trace {
		sp := rec.spans
		m := res.Metrics
		if !stored {
			lp.extractionMetrics(m)
		}
		lp.probeMetrics(m)
		m["walrus.query_us"] = median(durationsUS(sp, "walrus.query"))
		m["walrus.query_residual_us"] = median(selfUS(sp, "walrus.query"))
		m["walrus.regions_retrieved_per_query"] = ratio(retrieved, float64(tracedQueries))
		m["walrus.candidates_per_query"] = ratio(candidates, float64(tracedQueries))
		m["walrus.probe_precision"] = ratio(retrieved, rawHits)
		m["bench.trace_overhead_pct"] = 100 * (ratio(median(traced), median(lat)) - 1)
		if stored {
			hits, misses := float64(counter["walrus_bufpool_hits_total"]), float64(counter["walrus_bufpool_misses_total"])
			m["store.bufpool_hit_ratio"] = ratio(hits, hits+misses)
			m["store.pager_reads_per_query"] = ratio(float64(counter["walrus_pager_reads_total"]), float64(tracedQueries))
			bytes, err := dirBytes(st.dir)
			if err != nil {
				return nil, err
			}
			m["store.disk_bytes_per_image"] = ratio(float64(bytes), float64(db.Len()))
		}
		res.Samples["traced_ops"] = len(traced)
		res.Samples["replayed_ops"] = replayedQueries
		if err := rec.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	return res, st.discard()
}
