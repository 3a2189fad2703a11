package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"walrus"
	"walrus/internal/obs"
)

// ingestOp is one planned op of an ingest workload: add corpus image
// idx, or remove an earlier image by id.
type ingestOp struct {
	remove bool
	idx    int
	id     string
}

// planIngest fixes the op sequence from the seed. ingest_extract only
// adds; ingest_durable removes a uniformly drawn live image one op in
// ten. Indices below warmupOps were added during set-up.
func planIngest(cp corpus, n int, durable bool) []ingestOp {
	rng := cp.rng(2, 0)
	live := make([]int, warmupOps)
	for i := range live {
		live[i] = i
	}
	next := warmupOps
	plan := make([]ingestOp, 0, n)
	for len(plan) < n {
		if durable && rng.Float64() < 0.1 && len(live) > 0 {
			j := rng.Intn(len(live))
			plan = append(plan, ingestOp{remove: true, idx: live[j], id: cp.id(live[j])})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		plan = append(plan, ingestOp{idx: next, id: cp.id(next)})
		live = append(live, next)
		next++
	}
	return plan
}

// ingestState is the database an ingest workload writes to.
type ingestState struct {
	db  *walrus.DB
	dir string
}

func (st ingestState) discard() error {
	return errors.Join(st.db.Close(), removeAll(st.dir))
}

// runIngest runs ingest_extract (durable=false) or ingest_durable.
func runIngest(cfg runConfig, durable bool) (*result, error) {
	res := newResult(cfg)
	opts := walrus.DefaultOptions()
	cp := corpus{seed: cfg.Seed, stream: 1, sizes: paperSizes}
	if durable {
		opts.Durability = walrus.DurabilityAlways
		cp.sizes = smallSizes
	}
	var err error
	if res.CorpusHash, err = cp.hash(); err != nil {
		return nil, err
	}
	areas := make(map[string]int)

	// Set-up: create the database and ingest the warm-up images, so the
	// measured phase starts with caches, pools and the first tree levels
	// in place.
	build := func() (ingestState, time.Duration, error) {
		var st ingestState
		var sw stopwatch
		err := sw.time(func() (err error) {
			if !durable {
				st.db, err = walrus.New(opts)
				return err
			}
			if st.dir, err = cfg.tempDir("db"); err != nil {
				return err
			}
			st.db, err = walrus.Create(st.dir, opts)
			return err
		})
		if err != nil {
			return st, 0, err
		}
		err = cp.eachBatch(warmupOps, func(_ int, items []item) error {
			for _, it := range items {
				areas[it.ID] = it.area()
				if err := sw.time(func() error { return st.db.Add(it.ID, it.Image) }); err != nil {
					return err
				}
			}
			return nil
		})
		return st, sw.total, err
	}
	st, setupS, err := setupMedian(cfg.setups(), build, ingestState.discard)
	if err != nil {
		return nil, err
	}
	db := st.db
	res.Metrics["setup_s"] = setupS

	n := cfg.ops()
	if cfg.Trace {
		n = 2 * n / traceOpsShare // half of them traced
	}
	plan := planIngest(cp, n, durable)

	// Trace-mode apparatus; all nil/unused in an untraced run.
	var (
		rec     *recorder
		lp      *layerProbe
		pi      *probeIndex
		reg     *obs.Registry
		traced  []float64 // latencies of traced ops, ms
		adds    int       // traced adds so far
		writes  int       // traced ops so far
		counter map[string]uint64
	)
	if cfg.Trace {
		rec = newRecorder()
		reg = obs.NewRegistry()
		if lp, err = newLayerProbe(rec, opts); err != nil {
			return nil, err
		}
		if pi, err = newProbeIndex(opts); err != nil {
			return nil, err
		}
	}

	live := make(map[string]bool, warmupOps+n)
	for i := 0; i < warmupOps; i++ {
		live[cp.id(i)] = true
	}
	var removed []string
	var lat []float64
	var buf []item // rendered, not yet added; buf[0] is corpus image bufLo
	bufLo := 0
	runtime.GC()
	phase := time.Now()
	for k, op := range plan {
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
		var it item
		if !op.remove {
			if op.idx >= bufLo+len(buf) {
				bufLo, buf = op.idx, cp.batch(op.idx, op.idx+batchSize)
			}
			it = buf[op.idx-bufLo]
			areas[it.ID] = it.area()
		}
		name := "walrus.add"
		apply := func() error { return db.Add(it.ID, it.Image) }
		if op.remove {
			name = "walrus.remove"
			apply = func() error {
				ok, err := db.Remove(op.id)
				if err == nil && !ok {
					err = fmt.Errorf("id was not present")
				}
				return err
			}
		}
		var opSpan int
		if tracing {
			opSpan = rec.start(name, 0, k+1)
		}
		t := time.Now()
		err := apply()
		ms := msSince(t)
		if tracing {
			rec.end(opSpan)
		}
		res.check(err, fmt.Sprintf("op %d %s %s", k, name, op.id))
		if err != nil {
			continue
		}
		if op.remove {
			delete(live, op.id)
			removed = append(removed, op.id)
		} else {
			live[op.id] = true
		}
		if !tracing {
			lat = append(lat, ms)
			continue
		}
		traced = append(traced, ms)
		writes++
		if op.remove {
			continue
		}
		adds++
		if adds%replayEvery != 0 {
			continue
		}
		regions, err := lp.extract(it.Image, opSpan, k+1)
		if err != nil {
			return nil, err
		}
		if err := pi.insert(0, regions, rec, opSpan, k+1); err != nil {
			return nil, err
		}
		var serr error
		rec.measure("walrus.snapshot_acquire", 0, k+1, func() {
			var s *walrus.Snapshot
			if s, serr = db.Snapshot(); serr == nil {
				s.Release()
			}
		})
		if serr != nil {
			return nil, serr
		}
	}
	if cfg.Trace {
		db.SetMetrics(reg) // the last block may have been an untraced one
		counter = db.Metrics().Counters
		db.SetMetrics(nil)
	}
	res.PhaseS = time.Since(phase).Seconds()
	res.Ops["measured"] = len(lat) + len(traced)
	res.Metrics["heap_mb"] = heapMB(db)
	res.setTimings(lat)

	// Durability: what a crash now would leave on disk must reopen to
	// exactly the acknowledged state, and so must a clean close.
	var crashDirs []string
	if durable {
		copies := 1
		if cfg.Trace {
			copies = 5
		}
		for i := 0; i < copies; i++ {
			d, err := cfg.tempDir("crash")
			if err != nil {
				return nil, err
			}
			crashDirs = append(crashDirs, d)
			if err := copyDir(st.dir, d); err != nil {
				return nil, err
			}
		}
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("closing database: %w", err)
		}
		var recoveries []float64
		for i, d := range crashDirs {
			t := time.Now()
			cdb, err := walrus.Open(d)
			recoveries = append(recoveries, msSince(t))
			if err != nil {
				res.attempt(fmt.Sprintf("reopening crash image: %v", err))
				continue
			}
			if i == 0 {
				verifyIDs(res, cdb, live, removed, "crash image")
			}
			if err := cdb.Close(); err != nil {
				return nil, err
			}
		}
		if cfg.Trace {
			res.Metrics["wal.recovery_ms"] = median(recoveries)
			bytes, err := dirBytes(st.dir)
			if err != nil {
				return nil, err
			}
			res.Metrics["store.disk_bytes_per_image"] = ratio(float64(bytes), float64(len(live)))
		}
		if db, err = walrus.Open(st.dir); err != nil {
			return nil, fmt.Errorf("reopening database: %w", err)
		}
		verifyIDs(res, db, live, removed, "reopened database")
	}

	// Retrieval check and quality guard on the final state.
	ids := db.IDs()
	orc, err := newOracle(db, ids, areas)
	if err != nil {
		return nil, err
	}
	p := queryParams()
	var precisions []float64
	for i := 0; i < verifyQueries && len(ids) > 0; i++ {
		id := ids[cp.pick(i, len(ids))]
		got, _, err := db.QueryByID(context.Background(), id, p)
		if err != nil {
			res.attempt(fmt.Sprintf("QueryByID %s: %v", id, err))
			continue
		}
		want, err := orc.queryByID(id, p)
		if err != nil {
			return nil, err
		}
		failure := diffMatches(got, want)
		if failure != "" {
			failure = fmt.Sprintf("QueryByID %s: %s", id, failure)
		}
		res.attempt(failure)
		precisions = append(precisions, precisionAt10(matchIDs(got), categoryOf(id)))
	}
	res.Metrics["precision_at_10"] = mean(precisions)
	res.Samples["precision_at_10"] = len(precisions)

	if cfg.Trace {
		sp := rec.spans
		m := res.Metrics
		lp.extractionMetrics(m)
		m["rstar.insert_us"] = median(durationsUS(sp, "rstar.insert"))
		m["walrus.add_us"] = median(durationsUS(sp, "walrus.add"))
		residuals := selfUS(sp, "walrus.add")
		m["walrus.add_residual_us"] = median(residuals)
		fifth := max(len(residuals)/5, 1)
		if len(residuals) >= fifth {
			m["walrus.add_residual_first_us"] = median(residuals[:fifth])
			m["walrus.add_residual_last_us"] = median(residuals[len(residuals)-fifth:])
		}
		m["walrus.snapshot_acquire_us"] = median(durationsUS(sp, "walrus.snapshot_acquire"))
		m["bench.trace_overhead_pct"] = 100 * (ratio(median(traced), median(lat)) - 1)
		if durable {
			m["wal.fsyncs_per_write"] = ratio(float64(counter["walrus_wal_fsync_total"]), float64(writes))
			m["wal.bytes_per_write"] = ratio(float64(counter["walrus_wal_bytes_written_total"]), float64(writes))
			m["store.pager_writes_per_write"] = ratio(float64(counter["walrus_pager_writes_total"]), float64(writes))
			if err := walAppendSync(rec, cfg.TmpDir, max(int(m["wal.bytes_per_write"]), 64), 200); err != nil {
				return nil, err
			}
			m["wal.append_sync_us"] = median(durationsUS(rec.spans, "wal.append_sync"))
		}
		res.Samples["traced_ops"] = len(traced)
		if err := rec.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	return res, removeAll(append(crashDirs, st.dir)...)
}

// verifyIDs checks a reopened database against the acknowledged state:
// every acked add that was not removed is present, every acked remove is
// absent. Each lost or resurrected id counts as one failed attempt.
func verifyIDs(res *result, db *walrus.DB, live map[string]bool, removed []string, what string) {
	res.attempt("")
	if db.Len() != len(live) {
		res.attempt(fmt.Sprintf("%s holds %d images, %d were acknowledged", what, db.Len(), len(live)))
	}
	for id := range live {
		if _, ok := db.RegionsOf(id); !ok {
			res.attempt(fmt.Sprintf("%s lost acknowledged image %s", what, id))
		}
	}
	for _, id := range removed {
		if _, ok := db.RegionsOf(id); ok {
			res.attempt(fmt.Sprintf("%s still holds removed image %s", what, id))
		}
	}
}

func matchIDs(ms []walrus.Match) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}
