package walrus

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
)

// shardScriptCorpus is the seeded image set the shard tests mutate; a
// slice of corpus50 keeps the matrix fast enough for -race.
func shardScriptCorpus(t *testing.T) []BatchItem {
	t.Helper()
	return corpus50(t)[:24]
}

// runShardScript drives one sharded database through the canonical
// AddBatch/Add/Remove/re-add script at the given shard count, at
// GOMAXPROCS procs for the rest of the test. Every (shards, procs)
// combination must leave the database in a logically identical state.
func runShardScript(t *testing.T, shards, procs int) *DB {
	t.Helper()
	setProcs(t, procs)
	opts := testOptions()
	opts.Shards = shards
	s, err := New(opts)
	if err != nil {
		t.Fatalf("shards=%d: New: %v", shards, err)
	}
	items := shardScriptCorpus(t)
	if err := s.AddBatch(items[:14], 0); err != nil {
		t.Fatalf("shards=%d: AddBatch: %v", shards, err)
	}
	for _, it := range items[14:18] {
		if err := s.Add(it.ID, it.Image); err != nil {
			t.Fatalf("shards=%d: Add %s: %v", shards, it.ID, err)
		}
	}
	for _, id := range []string{"corpus-03", "corpus-11", "corpus-16"} {
		ok, err := s.Remove(id)
		if err != nil {
			t.Fatalf("shards=%d: Remove %s: %v", shards, id, err)
		}
		if !ok {
			t.Fatalf("shards=%d: Remove %s: not present", shards, id)
		}
	}
	if err := s.AddBatch(items[18:], 0); err != nil {
		t.Fatalf("shards=%d: AddBatch tail: %v", shards, err)
	}
	// Re-adding a removed id must work and land on the same shard.
	if err := s.Add("corpus-11", items[11].Image); err != nil {
		t.Fatalf("shards=%d: re-Add corpus-11: %v", shards, err)
	}
	return s
}

// shardFingerprint renders everything the determinism matrix compares
// byte-for-byte: the canonical (sorted) id listing, the logical
// (layout-independent) Stats fields, per-id region counts, and full query
// rankings with exact similarities. Physical layout — per-shard image
// counts, index heights, and IDs' order, which is insertion order on one
// shard — is deliberately excluded: it varies with the shard count by
// design.
func shardFingerprint(t *testing.T, s *DB, queries []*imgio.Image) string {
	t.Helper()
	var b strings.Builder
	ids := s.IDs()
	slices.Sort(ids)
	b.WriteString("ids=")
	b.WriteString(strings.Join(ids, ","))
	b.WriteString("\n")
	st := s.Stats()
	b.WriteString("images=")
	b.WriteString(strconv.Itoa(st.Images))
	b.WriteString(" regions=")
	b.WriteString(strconv.Itoa(st.Regions))
	b.WriteString(" sigdim=")
	b.WriteString(strconv.Itoa(st.SignatureDim))
	b.WriteString(" disk=")
	b.WriteString(strconv.FormatBool(st.DiskBacked))
	b.WriteString("\n")
	if got := s.Len(); got != st.Images {
		t.Fatalf("Len() = %d, Stats().Images = %d", got, st.Images)
	}
	if got := s.NumRegions(); got != st.Regions {
		t.Fatalf("NumRegions() = %d, Stats().Regions = %d", got, st.Regions)
	}
	for _, id := range ids {
		regs, ok := s.RegionsOf(id)
		if !ok {
			t.Fatalf("RegionsOf(%s): not found but listed in IDs", id)
		}
		b.WriteString("regions[")
		b.WriteString(id)
		b.WriteString("]=")
		b.WriteString(strconv.Itoa(len(regs)))
		b.WriteString("\n")
	}
	b.WriteString(shardRankings(t, s, queries, DefaultQueryParams()))
	return b.String()
}

// shardRankings renders each query's top 10 under p: the funnel counts,
// then every match's id, similarity, matching-region count and pair set
// (empty under the quick matcher, which builds none).
func shardRankings(t *testing.T, s *DB, queries []*imgio.Image, p QueryParams) string {
	t.Helper()
	var b strings.Builder
	p.Limit = 10
	for qi, q := range queries {
		matches, qs, err := s.QueryContext(context.Background(), q, p)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		b.WriteString("q")
		b.WriteString(strconv.Itoa(qi))
		b.WriteString(" qregions=")
		b.WriteString(strconv.Itoa(qs.QueryRegions))
		b.WriteString(" retrieved=")
		b.WriteString(strconv.Itoa(qs.RegionsRetrieved))
		b.WriteString(" candidates=")
		b.WriteString(strconv.Itoa(qs.CandidateImages))
		b.WriteString("\n")
		for _, m := range matches {
			b.WriteString("  ")
			b.WriteString(m.ID)
			b.WriteString(" ")
			b.WriteString(strconv.FormatFloat(m.Similarity, 'g', -1, 64))
			b.WriteString(" ")
			b.WriteString(strconv.Itoa(m.MatchingRegions))
			b.WriteString(fmt.Sprint(" ", m.Pairs, "\n"))
		}
	}
	return b.String()
}

func shardTestQueries() []*imgio.Image {
	return []*imgio.Image{
		scene(green, red, 24, 24, 40),
		scene(gray, blue, 40, 40, 44),
		scene(green, yellow, 16, 48, 36),
	}
}

// TestShardMatrixDeterminism is the shard-count equivalence matrix: the
// same mutation script run at shards ∈ {1,2,4,7} and GOMAXPROCS ∈ {1,4}
// must produce byte-identical query results, IDs() and logical Stats()
// output, with the shards=1 serial run pinned as the oracle.
func TestShardMatrixDeterminism(t *testing.T) {
	queries := shardTestQueries()
	oracle := ""
	for _, shards := range []int{1, 2, 4, 7} {
		for _, procs := range []int{1, 4} {
			s := runShardScript(t, shards, procs)
			got := shardFingerprint(t, s, queries)
			if oracle == "" {
				oracle = got
				continue
			}
			if got != oracle {
				t.Errorf("shards=%d procs=%d diverges from the shards=1 oracle\n--- oracle ---\n%s--- got ---\n%s",
					shards, procs, oracle, got)
			}
		}
	}
}

// TestShardMatchesUnsharded pins the sharded fan-out to the plain DB
// pipeline: a 4-shard database must rank every query exactly like an
// unsharded database over the same corpus — ids, similarities, matching
// region counts and pair sets — under both the quick and the greedy
// matcher, with and without a similarity threshold, and at every Limit,
// including the low ones where each shard's own top-Limit cut decides
// what reaches the merge.
func TestShardMatchesUnsharded(t *testing.T) {
	items := shardScriptCorpus(t)
	plain, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Shards = 4
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != plain.Len() || s.NumRegions() != plain.NumRegions() {
		t.Fatalf("sharded %d/%d images/regions, plain %d/%d",
			s.Len(), s.NumRegions(), plain.Len(), plain.NumRegions())
	}
	// The corpus images themselves join the probe scenes as queries: each
	// ranks its palette-mates first, so at low Limits the fleet's top
	// matches often share a shard.
	queries := shardTestQueries()
	for _, it := range items {
		queries = append(queries, it.Image)
	}
	for _, matcher := range []match.Algorithm{match.Quick, match.Greedy} {
		for _, tau := range []float64{0, 0.1} {
			for _, limit := range []int{0, 1, 2, 3, 10} {
				p := DefaultQueryParams()
				p.Matcher, p.Tau, p.Limit = matcher, tau, limit
				label := fmt.Sprintf("%v tau=%v limit=%d", matcher, tau, limit)
				for qi, q := range queries {
					want, ws, err := plain.QueryContext(context.Background(), q, p)
					if err != nil {
						t.Fatal(err)
					}
					got, gs, err := s.QueryContext(context.Background(), q, p)
					if err != nil {
						t.Fatal(err)
					}
					if gs.RegionsRetrieved != ws.RegionsRetrieved || gs.CandidateImages != ws.CandidateImages {
						t.Fatalf("%s query %d stats differ: retrieved %d/%d candidates %d/%d",
							label, qi, gs.RegionsRetrieved, ws.RegionsRetrieved, gs.CandidateImages, ws.CandidateImages)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s query %d: sharded ranking\n%+v\nplain ranking\n%+v", label, qi, got, want)
					}
				}
			}
		}
	}
}

// TestShardBulkLoadDeterminism: the packed bulk-load constructors must
// produce the same logical state as the incremental script's AddBatch,
// at every shard count. The two trees differ in shape, so each probe
// emits its hits in a different order; every matcher must still produce
// the same similarities and pair sets.
func TestShardBulkLoadDeterminism(t *testing.T) {
	items := shardScriptCorpus(t)
	queries := shardTestQueries()
	oracle := ""
	for _, shards := range []int{1, 3} {
		opts := testOptions()
		opts.Shards = shards
		built, err := BuildFrom(opts, items, 0)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := incr.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		fpBuilt := shardFingerprint(t, built, queries)
		fpIncr := shardFingerprint(t, incr, queries)
		if fpBuilt != fpIncr {
			t.Errorf("shards=%d: BuildFrom diverges from AddBatch\n--- AddBatch ---\n%s--- BuildFrom ---\n%s",
				shards, fpIncr, fpBuilt)
		}
		for _, m := range []match.Algorithm{match.Greedy, match.Exact, match.Assignment} {
			p := DefaultQueryParams()
			p.Matcher = m
			rb, ri := shardRankings(t, built, queries, p), shardRankings(t, incr, queries, p)
			if rb != ri {
				t.Errorf("shards=%d matcher=%v: BuildFrom diverges from AddBatch\n--- AddBatch ---\n%s--- BuildFrom ---\n%s",
					shards, m, ri, rb)
			}
			fpBuilt += rb
		}
		if oracle == "" {
			oracle = fpBuilt
		} else if fpBuilt != oracle {
			t.Errorf("shards=%d: BuildFrom diverges from shards=1 oracle", shards)
		}
	}
}

// TestShardDiskRoundtrip: Create → mutate → Close → Open
// preserves the fingerprint, reports per-shard recovery stats, and the
// manifest makes Open find every shard.
func TestShardDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 3
	s, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := shardScriptCorpus(t)
	if err := s.AddBatch(items[:16], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove(items[5].ID); err != nil {
		t.Fatal(err)
	}
	queries := shardTestQueries()
	before := shardFingerprint(t, s, queries)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardManifestName)); err != nil {
		t.Fatalf("no shard manifest after Create: %v", err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after reopen, want 3", got)
	}
	rs, ok := reopened.Recovery()
	if !ok || len(rs) != 3 {
		t.Fatalf("Recovery() = (%d reports, %v), want 3 reports from a disk-backed fleet", len(rs), ok)
	}
	for i, r := range rs {
		if r.Replayed {
			t.Errorf("shard %d replayed its WAL after a clean close", i)
		}
	}
	after := shardFingerprint(t, reopened, queries)
	if after != before {
		t.Errorf("fingerprint changed across Close/Open\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// CreateFrom bulk-loads into a fresh directory; the physical
	// layout differs (packed tree) but the fingerprint may not.
	bulkDir := t.TempDir()
	final := append([]BatchItem(nil), items[:5]...)
	final = append(final, items[6:16]...)
	bulk, err := CreateFrom(bulkDir, opts, final, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	if got := shardFingerprint(t, bulk, queries); got != before {
		t.Errorf("CreateFrom fingerprint diverges\n--- incremental ---\n%s--- bulk ---\n%s", before, got)
	}
}
