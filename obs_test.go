package walrus

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"walrus/internal/obs"
)

// TestQueryStatsMatchRegistry checks the two reporting paths agree: the
// QueryStats a serial query returns and the counters/histograms the same
// query published into the registry describe identical quantities.
func TestQueryStatsMatchRegistry(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	if err := db.Add("a", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("b", scene(gray, blue, 16, 16, 48)); err != nil {
		t.Fatal(err)
	}
	_, stats, err := db.QueryContext(context.Background(), scene(green, red, 32, 32, 48), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics()
	wantCounters := map[string]uint64{
		"walrus_query_total":                   1,
		"walrus_query_regions_total":           uint64(stats.QueryRegions),
		"walrus_query_regions_retrieved_total": uint64(stats.RegionsRetrieved),
		"walrus_query_candidates_total":        uint64(stats.CandidateImages),
		"walrus_ingest_total":                  2,
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	wantHists := map[string]float64{
		"walrus_query_seconds":         stats.Elapsed.Seconds(),
		"walrus_query_extract_seconds": stats.ExtractTime.Seconds(),
		"walrus_query_probe_seconds":   stats.ProbeTime.Seconds(),
		"walrus_query_score_seconds":   stats.ScoreTime.Seconds(),
	}
	for name, want := range wantHists {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %s missing from snapshot", name)
			continue
		}
		if h.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count)
		}
		if math.Abs(h.Sum-want) > 1e-9 {
			t.Errorf("%s sum = %v, want %v (from QueryStats)", name, h.Sum, want)
		}
	}
	if got := snap.Gauges["walrus_images"]; got != 2 {
		t.Errorf("walrus_images = %d, want 2", got)
	}
	if got := snap.Gauges["walrus_regions"]; got != int64(db.NumRegions()) {
		t.Errorf("walrus_regions = %d, want %d", got, db.NumRegions())
	}
	// The query span family made it into the ring.
	spans, _ := reg.Tracer().Spans()
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"query", "query.extract", "query.probe", "query.score", "ingest"} {
		if !seen[name] {
			t.Errorf("span %q not recorded (have %v)", name, seen)
		}
	}
}

// countSnapshot reduces a Snapshot to its scheduling-independent part:
// counters, gauges, and histogram observation counts. Sums and bucket
// placement are wall-clock dependent and excluded.
func countSnapshot(s obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		out["counter:"+name] = int64(v)
	}
	for name, v := range s.Gauges {
		out["gauge:"+name] = v
	}
	for name, h := range s.Histograms {
		out["hist_count:"+name] = int64(h.Count)
	}
	return out
}

// TestObsCountDeterminism builds two identical in-memory databases with
// separate registries, one at GOMAXPROCS 1 and one at GOMAXPROCS 8, and
// runs the same queries on each: every count metric must be identical —
// parallelism may only change timings, never how much work was done.
func TestObsCountDeterminism(t *testing.T) {
	build := func(reg *obs.Registry, procs int) obs.Snapshot {
		setProcs(t, procs)
		db, err := New(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		db.SetMetrics(reg)
		for i := 0; i < 6; i++ {
			if err := db.Add(fmt.Sprintf("img-%d", i), scene(green, red, i*10, i*8, 40)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, _, err := db.QueryContext(context.Background(), scene(green, red, 24, 24, 40), DefaultQueryParams()); err != nil {
				t.Fatal(err)
			}
		}
		db.SetMetrics(nil)
		return reg.Snapshot()
	}
	serial := countSnapshot(build(obs.NewRegistry(), 1))
	parallelSnap := countSnapshot(build(obs.NewRegistry(), 8))
	for name, want := range serial {
		if got, ok := parallelSnap[name]; !ok || got != want {
			t.Errorf("%s: serial=%d parallel=%d", name, want, got)
		}
	}
	for name := range parallelSnap {
		if _, ok := serial[name]; !ok {
			t.Errorf("%s present only in parallel run", name)
		}
	}
}

// TestObsScrapeUnderLoad hammers one database with concurrent adds,
// removes and parallel queries while a scraper loops over the live HTTP
// endpoints, checking every response parses: /metrics must stay valid
// Prometheus text and /debug/vars valid JSON for the whole run. Run with
// -race in CI (the obs tier).
func TestObsScrapeUnderLoad(t *testing.T) {
	setProcs(t, 4)
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	defer db.SetMetrics(nil)
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	for i := 0; i < 4; i++ {
		if err := db.Add(fmt.Sprintf("seed-%d", i), scene(green, red, i*12, i*9, 40)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})

	// Writers: add then remove their own images.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-%d", g, i)
				if err := db.Add(id, scene(gray, blue, g*10+i, i*13, 40)); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if _, err := db.Remove(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	// Readers: parallel queries.
	q := scene(green, red, 24, 24, 40)
	p := DefaultQueryParams()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, _, err := db.QueryContext(context.Background(), q, p); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Scraper: loops until the load is done.
	scrape := func(path string) ([]byte, error) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	scraperDone := make(chan error, 1)
	go func() {
		for {
			body, err := scrape("/metrics")
			if err == nil {
				err = obs.ValidatePrometheus(body)
			}
			if err == nil {
				_, err = scrape("/debug/vars")
			}
			if err == nil {
				_, err = scrape("/debug/walrus/spans")
			}
			if err != nil {
				scraperDone <- err
				return
			}
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-scraperDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One final scrape after the dust settles must also validate.
	body, err := scrape("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(body); err != nil {
		t.Fatalf("final scrape invalid: %v\n%s", err, body)
	}
	snap := db.Metrics()
	if snap.Counters["walrus_query_total"] == 0 || snap.Counters["walrus_ingest_total"] == 0 ||
		snap.Counters["walrus_removes_total"] == 0 {
		t.Fatalf("expected query/ingest/remove counters to be nonzero: %v", snap.Counters)
	}
}

// TestMetricsNilRegistry checks the off state: no registry means an empty
// (but non-nil) snapshot and no panics anywhere on the instrumented paths.
func TestMetricsNilRegistry(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.QueryContext(context.Background(), scene(green, red, 32, 32, 48), DefaultQueryParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Fatalf("nil maps in empty snapshot: %+v", snap)
	}
	if len(snap.Counters) != 0 {
		t.Fatalf("unexpected metrics without a registry: %v", snap.Counters)
	}
}
