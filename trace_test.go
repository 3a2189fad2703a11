package walrus

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"walrus/internal/obs"
)

// normalizeTrace strips everything about a QueryTrace that is allowed to
// vary run to run — trace id and wall times — and returns the rest as
// canonical JSON. Two queries over the same data must normalize
// identically at every GOMAXPROCS.
func normalizeTrace(t *testing.T, qt *QueryTrace) string {
	t.Helper()
	c := *qt
	c.TraceID = ""
	c.ElapsedNS = 0
	c.Stages = append([]ExplainStage(nil), qt.Stages...)
	for i := range c.Stages {
		c.Stages[i].DurationNS = 0
	}
	c.Shards = append([]ExplainShard(nil), qt.Shards...)
	for i := range c.Shards {
		c.Shards[i].ProbeNS = 0
		c.Shards[i].ScoreNS = 0
	}
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshaling trace: %v", err)
	}
	return string(b)
}

// explainedQuery runs one query at GOMAXPROCS procs, which it leaves set
// for the rest of the test, with a fresh funnel accumulator and returns
// the filled trace.
func explainedQuery(t *testing.T, s *DB, procs int) (*QueryTrace, QueryStats, int) {
	t.Helper()
	setProcs(t, procs)
	p := DefaultQueryParams()
	p.Limit = 10
	ctx, qt := WithQueryTrace(context.Background())
	matches, stats, err := s.QueryContext(ctx, scene(green, red, 24, 24, 40), p)
	if err != nil {
		t.Fatalf("explained query (procs=%d): %v", procs, err)
	}
	return qt, stats, len(matches)
}

// buildTraceSharded seeds a sharded database with a deterministic corpus.
func buildTraceSharded(t *testing.T, shards int) *DB {
	t.Helper()
	opts := testOptions()
	opts.Shards = shards
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New(%d): %v", shards, err)
	}
	if err := s.AddBatch(corpus50(t)[:20], 4); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	return s
}

// TestTraceCompleteness storms a 4-shard database with concurrent
// explained queries and then audits every recorded trace: exactly one
// root span named "query", every other span parented inside the same
// trace (no orphans — the parent links must survive the cross-shard
// fan-out), and the expected span family present. It also pins the
// funnel's determinism guarantee: the counts a storm query reports at
// GOMAXPROCS 4 are byte-identical to those of a query at GOMAXPROCS 1.
// Runs under -race in CI (the explain tier).
func TestTraceCompleteness(t *testing.T) {
	s := buildTraceSharded(t, 4)
	// A big ring so the whole storm fits without wraparound; the
	// overflow path has its own test (TestTraceSpanRingOverflow).
	reg := obs.NewRegistrySpanRing(1 << 14)
	s.SetMetrics(reg)
	defer s.SetMetrics(nil)

	serial, _, _ := explainedQuery(t, s, 1)
	wantFunnel := normalizeTrace(t, serial)

	const goroutines, perG = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	traces := make(chan uint64, goroutines*perG)
	funnels := make(chan string, goroutines*perG)
	type funnelCarrier struct {
		qt *QueryTrace
		id uint64
	}
	results := make(chan funnelCarrier, goroutines*perG)
	setProcs(t, 4)
	p := DefaultQueryParams()
	p.Limit = 10
	q := scene(green, red, 24, 24, 40)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, qt := WithQueryTrace(context.Background())
				if _, _, err := s.QueryContext(ctx, q, p); err != nil {
					errs <- err
					return
				}
				id, err := obs.ParseTraceID(qt.TraceID)
				if err != nil {
					errs <- fmt.Errorf("bad trace id %q: %w", qt.TraceID, err)
					return
				}
				results <- funnelCarrier{qt, id}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	for r := range results {
		traces <- r.id
		funnels <- normalizeTrace(t, r.qt)
	}
	close(traces)
	close(funnels)

	// Every storm funnel matches the serial reference byte for byte.
	for f := range funnels {
		if f != wantFunnel {
			t.Fatalf("storm funnel diverged from serial reference:\n got %s\nwant %s", f, wantFunnel)
		}
	}

	// Every trace is a complete, single-rooted tree.
	seen := map[uint64]bool{}
	for id := range traces {
		if seen[id] {
			t.Fatalf("trace id %d assigned to two queries", id)
		}
		seen[id] = true
		spans := reg.Tracer().TraceSpans(id)
		if len(spans) == 0 {
			t.Fatalf("trace %d recorded no spans", id)
		}
		ids := map[uint64]bool{}
		for _, sp := range spans {
			ids[sp.ID] = true
		}
		roots := 0
		byName := map[string]int{}
		for _, sp := range spans {
			byName[sp.Name]++
			if sp.Parent == 0 {
				roots++
				if sp.Name != "query" {
					t.Fatalf("trace %d: root span is %q, want \"query\"", id, sp.Name)
				}
				continue
			}
			if !ids[sp.Parent] {
				t.Fatalf("trace %d: span %q (id %d) orphaned — parent %d not in trace",
					id, sp.Name, sp.ID, sp.Parent)
			}
		}
		if roots != 1 {
			t.Fatalf("trace %d: %d root spans, want exactly 1", id, roots)
		}
		want := map[string]int{
			"query": 1, "query.extract": 1, "query.probe": 1, "query.score": 1,
			"query.shard.probe": 4, "query.shard.aggregate": 4, "query.shard.score": 4,
		}
		for name, n := range want {
			if byName[name] != n {
				t.Fatalf("trace %d: %d %q spans, want %d (have %v)", id, byName[name], name, n, byName)
			}
		}
	}
}

// TestExplainFunnelDeterminism pins the funnel's two invariance claims:
// counts are identical at every GOMAXPROCS (full normalized-JSON
// equality per shard count), and logically identical across shard counts
// — the 4-shard totals must agree with the 1-shard oracle on everything
// layout-independent (per-stage flow, candidates, matches), while
// physical fields (node visits, per-shard split) may differ.
func TestExplainFunnelDeterminism(t *testing.T) {
	type totals struct {
		regions, probeOut, candidates, matches int
	}
	reduce := func(qt *QueryTrace) totals {
		tot := totals{regions: qt.QueryRegions, matches: qt.Matches}
		for _, st := range qt.Stages {
			switch st.Stage {
			case "probe":
				tot.probeOut = st.Out
			case "aggregate":
				tot.candidates = st.Out
			}
		}
		return tot
	}
	var oracle totals
	for _, shards := range []int{1, 4} {
		s := buildTraceSharded(t, shards)
		serial, stats, matches := explainedQuery(t, s, 1)
		parallel, _, _ := explainedQuery(t, s, 8)
		if got, want := normalizeTrace(t, parallel), normalizeTrace(t, serial); got != want {
			t.Fatalf("shards=%d: funnel differs between GOMAXPROCS 1 and 8:\n got %s\nwant %s",
				shards, got, want)
		}
		// The funnel agrees with the stats the same query returned.
		if serial.QueryRegions != stats.QueryRegions || serial.Matches != matches {
			t.Fatalf("shards=%d: funnel disagrees with stats: %+v vs %+v (%d matches)",
				shards, serial, stats, matches)
		}
		retrieved, candidates := 0, 0
		for _, sh := range serial.Shards {
			retrieved += sh.RegionsRetrieved
			candidates += sh.CandidateImages
		}
		if retrieved != stats.RegionsRetrieved || candidates != stats.CandidateImages {
			t.Fatalf("shards=%d: shard rows sum to %d/%d, stats say %d/%d",
				shards, retrieved, candidates, stats.RegionsRetrieved, stats.CandidateImages)
		}
		// Stage chaining holds from probe onward (extract→probe multiplies
		// by the shard count, so that edge is checked via In directly).
		for i := 1; i < len(serial.Stages); i++ {
			if serial.Stages[i].Stage == "probe" {
				if want := serial.QueryRegions * shards; serial.Stages[i].In != want {
					t.Fatalf("shards=%d: probe In = %d, want %d", shards, serial.Stages[i].In, want)
				}
				continue
			}
			if serial.Stages[i].In != serial.Stages[i-1].Out {
				t.Fatalf("shards=%d: stage %q In = %d, previous Out = %d",
					shards, serial.Stages[i].Stage, serial.Stages[i].In, serial.Stages[i-1].Out)
			}
		}
		if len(serial.Shards) != shards {
			t.Fatalf("shards=%d: %d shard rows", shards, len(serial.Shards))
		}
		tot := reduce(serial)
		if shards == 1 {
			oracle = tot
			continue
		}
		if tot != oracle {
			t.Fatalf("logical funnel totals differ across shard counts: shards=4 %+v, oracle %+v", tot, oracle)
		}
	}
}
