package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"walrus"
	"walrus/internal/birch"
	"walrus/internal/colorspace"
	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/store"
	"walrus/internal/wal"
	"walrus/internal/wavelet"
)

// layerProbe replays, from outside the program, the public sub-layer
// calls an op makes on the same input, each inside a harness span whose
// parent is the op's span. The program is not instrumented: an op's
// residual is its span minus these replays.
type layerProbe struct {
	rec  *recorder
	opts walrus.Options
	ext  *region.Extractor

	// Per-image and per-probe counts, sampled where the replays run.
	windows, clusters, regions, allocBytes []float64
	visits, hits                           []float64
	pairsPerCandidate, scoreUSPerCandidate []float64
}

func newLayerProbe(rec *recorder, opts walrus.Options) (*layerProbe, error) {
	ext, err := region.NewExtractor(opts.Region)
	if err != nil {
		return nil, err
	}
	return &layerProbe{rec: rec, opts: opts, ext: ext}, nil
}

// extract replays region extraction on im as a child of parent, then its
// own sub-layer calls (colour conversion, the three per-channel sliding
// window pyramids, BIRCH) as children of that replay, composed with the
// same worker fan-out region.Extractor uses so the subtraction is fair.
func (lp *layerProbe) extract(im *imgio.Image, parent, trace int) ([]region.Region, error) {
	var regions []region.Region
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ex, _ := lp.rec.measure("region.extract", parent, trace, func() { regions, err = lp.ext.Extract(im) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	lp.rec.setCount(ex, len(regions))
	lp.regions = append(lp.regions, float64(len(regions)))
	lp.allocBytes = append(lp.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))

	ro := lp.opts.Region
	var conv *imgio.Image
	lp.rec.measure("colorspace.from_rgb", ex, trace, func() { conv, err = colorspace.FromRGB(im, ro.Space) })
	if err != nil {
		return nil, err
	}
	maxWin := ro.MaxWindow
	for maxWin > im.W || maxWin > im.H {
		maxWin /= 2
	}
	params := wavelet.SlidingParams{MaxWindow: maxWin, Signature: ro.Signature, Step: ro.Step, Workers: ro.Workers}
	pyramids := make([]*wavelet.Pyramid, conv.C)
	errs := make([]error, conv.C)
	lp.rec.measure("wavelet.sliding", ex, trace, func() {
		parallel.For(conv.C, ro.Workers, func(c int) {
			pyramids[c], errs[c] = wavelet.ComputeSlidingWindows(conv.Plane(c), conv.W, conv.H, params)
		})
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	var points [][]float64
	for win := ro.MinWindow; win <= maxWin; win *= 2 {
		grid := pyramids[0].Level(win)
		if grid == nil {
			continue
		}
		for iy := 0; iy < grid.NY; iy++ {
			for ix := 0; ix < grid.NX; ix++ {
				p := make([]float64, 0, ro.Dim())
				for c := range pyramids {
					p = append(p, cornerBlock(pyramids[c].Level(win).SigAt(ix, iy), grid.Sig, ro.Signature)...)
				}
				points = append(points, p)
			}
		}
	}
	var clusters []birch.Cluster
	bs, _ := lp.rec.measure("birch.cluster", ex, trace, func() {
		clusters, err = birch.ClusterPoints(points, ro.ClusterEps, ro.MaxRegions)
	})
	if err != nil {
		return nil, err
	}
	lp.rec.setCount(bs, len(clusters))
	lp.windows = append(lp.windows, float64(len(points)))
	lp.clusters = append(lp.clusters, float64(len(clusters)))
	return regions, nil
}

// cornerBlock copies the top-left want×want corner of a have×have
// signature block, zero-padded when the block is smaller.
func cornerBlock(blk []float64, have, want int) []float64 {
	out := make([]float64, want*want)
	n := min(have, want)
	for r := 0; r < n; r++ {
		copy(out[r*want:r*want+n], blk[r*have:r*have+n])
	}
	return out
}

// probeIndex is the harness's own R*-tree over the regions the database
// reports, on an in-memory node store with the database's node capacity.
// Searching it replays what a query's probe stage asks of the rstar
// layer, without the catalog, snapshot or page cache around it.
type probeIndex struct {
	tree *rstar.Tree
	// owner maps a tree payload to (oracle image, region within it).
	owner [][2]int
}

func newProbeIndex(opts walrus.Options) (*probeIndex, error) {
	capacity := opts.NodeCapacity
	if capacity == 0 {
		capacity = 16
	}
	ms, err := rstar.NewMemStore(opts.Region.Dim(), capacity)
	if err != nil {
		return nil, err
	}
	tree, err := rstar.New(ms)
	if err != nil {
		return nil, err
	}
	return &probeIndex{tree: tree}, nil
}

// insert indexes the regions of oracle image img. With a recorder, each
// R*-tree insert is a span under parent.
func (pi *probeIndex) insert(img int, regions []region.Region, rec *recorder, parent, trace int) error {
	for local, r := range regions {
		payload := int64(len(pi.owner))
		pi.owner = append(pi.owner, [2]int{img, local})
		var err error
		if rec != nil {
			rec.measure("rstar.insert", parent, trace, func() { err = pi.tree.Insert(rstar.Point(r.Signature), payload) })
		} else {
			err = pi.tree.Insert(rstar.Point(r.Signature), payload)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// indexOracle builds a probe index over every oracle image.
func indexOracle(o *oracle, opts walrus.Options) (*probeIndex, error) {
	pi, err := newProbeIndex(opts)
	if err != nil {
		return nil, err
	}
	for i, im := range o.images {
		if err := pi.insert(i, im.regions, nil, 0, 0); err != nil {
			return nil, err
		}
	}
	return pi, nil
}

// probeAndScore replays a query's probe and score stages on the harness
// index: one rstar.search span per query region, the epsilon filter and
// pair grouping as unspanned glue, and one match.score span over all
// candidate images.
func (lp *layerProbe) probeAndScore(o *oracle, pi *probeIndex, q []region.Region, qArea int, p walrus.QueryParams, parent, trace int) error {
	pairs := make(map[int][]match.Pair)
	for qi, qr := range q {
		var entries []rstar.Entry
		var visits int
		var err error
		id, _ := lp.rec.measure("rstar.search", parent, trace, func() {
			entries, visits, err = pi.tree.SearchAllCounting(rstar.Point(qr.Signature).Expand(p.Epsilon))
		})
		if err != nil {
			return err
		}
		lp.rec.setCount(id, len(entries))
		lp.visits = append(lp.visits, float64(visits))
		lp.hits = append(lp.hits, float64(len(entries)))
		for _, e := range entries {
			own := pi.owner[e.Data]
			if euclid(qr.Signature, o.images[own[0]].regions[own[1]].Signature) <= p.Epsilon {
				pairs[own[0]] = append(pairs[own[0]], match.Pair{Q: qi, T: own[1]})
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	candidates := make([]int, 0, len(pairs))
	npairs := 0
	for img, ps := range pairs {
		candidates = append(candidates, img)
		npairs += len(ps)
	}
	sort.Ints(candidates)
	opts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	var err error
	id, d := lp.rec.measure("match.score", parent, trace, func() {
		for _, img := range candidates {
			t := o.images[img]
			if _, e := match.Score(q, t.regions, pairs[img], qArea, t.area, opts); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	lp.rec.setCount(id, len(candidates))
	lp.pairsPerCandidate = append(lp.pairsPerCandidate, float64(npairs)/float64(len(candidates)))
	lp.scoreUSPerCandidate = append(lp.scoreUSPerCandidate, float64(d.Nanoseconds())/1e3/float64(len(candidates)))
	return nil
}

func euclid(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Sqrt(d)
}

// extractionMetrics fills the colorspace/wavelet/birch/region metrics
// from the replays recorded so far.
func (lp *layerProbe) extractionMetrics(m map[string]float64) {
	sp := lp.rec.spans
	m["colorspace.from_rgb_us"] = median(durationsUS(sp, "colorspace.from_rgb"))
	m["wavelet.sliding_us"] = median(durationsUS(sp, "wavelet.sliding"))
	m["wavelet.windows_per_image"] = mean(lp.windows)
	m["birch.cluster_us"] = median(durationsUS(sp, "birch.cluster"))
	m["birch.clusters_per_image"] = mean(lp.clusters)
	m["region.extract_us"] = median(durationsUS(sp, "region.extract"))
	m["region.self_us"] = median(selfUS(sp, "region.extract"))
	m["region.regions_per_image"] = mean(lp.regions)
	m["region.alloc_bytes_per_image"] = median(lp.allocBytes)
}

// probeMetrics fills the rstar search and match metrics.
func (lp *layerProbe) probeMetrics(m map[string]float64) {
	sp := lp.rec.spans
	m["rstar.search_us"] = median(durationsUS(sp, "rstar.search"))
	m["rstar.nodes_visited_per_probe"] = mean(lp.visits)
	m["rstar.hits_per_probe"] = mean(lp.hits)
	m["match.score_us"] = median(lp.scoreUSPerCandidate)
	m["match.pairs_per_candidate"] = mean(lp.pairsPerCandidate)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// walAppendSync times the wal layer alone: a scratch log in dir takes n
// transactions of one app record of the given size, each forced to
// stable storage, one wal.append_sync span per transaction.
func walAppendSync(rec *recorder, dir string, recordBytes, n int) error {
	f, err := os.OpenFile(filepath.Join(dir, "scratch.wal"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	log, err := wal.Create(f, store.DefaultPageSize, 1)
	if err != nil {
		f.Close()
		return fmt.Errorf("scratch wal: %w", err)
	}
	payload := make([]byte, recordBytes)
	for i := 0; i < n; i++ {
		var serr error
		rec.measure("wal.append_sync", 0, 0, func() {
			log.AppendApp(1, payload)
			log.AppendCommit()
			serr = log.Sync()
		})
		if serr != nil {
			return errors.Join(fmt.Errorf("scratch wal sync: %w", serr), log.Close())
		}
	}
	return log.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of a database directory tree: the
// bytes a crash would leave behind, taken while the database is open.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
