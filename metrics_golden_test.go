package walrus

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"walrus/internal/obs"
)

// metricsValues is the comparable part of a metrics snapshot: every
// series name with its counter or gauge value, or its histogram's
// observation count (sums and buckets hold wall times).
type metricsValues struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]uint64 `json:"histogram_counts"`
}

func valuesOf(s obs.Snapshot) metricsValues {
	v := metricsValues{Counters: s.Counters, Gauges: s.Gauges, Histograms: make(map[string]uint64, len(s.Histograms))}
	for name, h := range s.Histograms {
		v.Histograms[name] = h.Count
	}
	return v
}

// runMetricsSequence drives a fresh disk-backed database with the given
// shard count through a fixed sequence — single adds, a batch, a remove,
// pixels, id and scene queries (one answered from the result cache), a
// query on a pinned snapshot, and a flush — and returns the metrics it
// leaves behind. GOMAXPROCS is pinned so the worker-pool counts do not
// depend on the host.
func runMetricsSequence(t *testing.T, shards int) metricsValues {
	t.Helper()
	setProcs(t, 2)
	opts := testOptions()
	opts.Shards = shards
	opts.CacheSize = 8
	db, err := Create(filepath.Join(t.TempDir(), "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMetrics(obs.NewRegistry())
	items := frontCorpus(t)[:9]
	for _, it := range items[:3] {
		if err := db.Add(it.ID, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddBatch(items[3:], 0); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Remove(items[4].ID); err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	ctx := context.Background()
	p := DefaultQueryParams()
	for i := 0; i < 2; i++ {
		if _, _, err := db.QueryContext(ctx, items[0].Image, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.QueryByID(ctx, items[5].ID, p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.QuerySceneContext(ctx, scene(green, red, 24, 24, 48), 16, 16, 64, 64, p); err != nil {
		t.Fatal(err)
	}
	s, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.QueryContext(ctx, items[2].Image, p); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return valuesOf(db.Metrics())
}

// TestMetricsGolden pins the metric series a database reports to the
// ones the two database types reported before they merged:
// testdata/metrics_golden.json was recorded by running
// runMetricsSequence against that code, the one-shard case on the old DB
// and the two-shard case on the old Sharded. Every series name, counter
// and gauge value and histogram count must match, so a renamed, added or
// double-counted series — the database and its one shard both owning
// walrus_snapshots_active, say — fails. One value has moved since:
// walrus_pool_tasks_total went 1614 → 6 at one shard and 1634 → 26 at
// two when the sliding-window DP stopped sending its rows through the
// worker pool. One series has gone: walrus_recovery_app_records and its
// per-shard copies, whose recovery count could only read 0 once a
// rebuild marker past the last checkpoint failed Open. One series has
// been added: walrus_query_scored_total, the candidates scored once the
// coverage bound skips those that cannot be kept. It reads 20, equal to
// walrus_query_candidates_total, at both shard counts: the sequence's
// queries have τ 0 and no Limit, so the bound skips none. Another has
// been added since: walrus_cache_deltas_total, the cached answers
// brought forward across a write. It reads 0 at both shard counts: the
// sequence writes nothing between its cached queries; TestQueryCache
// counts one.
func TestMetricsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "metrics_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]metricsValues
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		name := fmt.Sprintf("shards=%d", shards)
		want, ok := golden[name]
		if !ok {
			t.Fatalf("no golden metrics for %s", name)
		}
		got := runMetricsSequence(t, shards)
		diffMetrics(t, name+" counter", got.Counters, want.Counters)
		diffMetrics(t, name+" gauge", got.Gauges, want.Gauges)
		diffMetrics(t, name+" histogram count", got.Histograms, want.Histograms)
	}
}

// diffMetrics reports every series missing from, added to, or valued
// differently in got against want.
func diffMetrics[V comparable](t *testing.T, kind string, got, want map[string]V) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	names := make([]string, 0, len(got)+len(want))
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		g, inGot := got[n]
		w, inWant := want[n]
		switch {
		case !inWant:
			t.Errorf("%s %s = %v is not in the golden set", kind, n, g)
		case !inGot:
			t.Errorf("%s %s missing (golden %v)", kind, n, w)
		case g != w:
			t.Errorf("%s %s = %v, golden %v", kind, n, g, w)
		}
	}
}
