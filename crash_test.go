package walrus

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/imgio"
	"walrus/internal/region"
	"walrus/internal/rstar"
)

// columnBytes returns every column value the catalog keeps for payload p,
// little-endian, in column order.
func columnBytes(c *regionColumns, p int) []byte {
	le := binary.LittleEndian
	r := c.region(p)
	b := le.AppendUint32(nil, c.windows[p])
	for _, col := range [][]float64{r.Signature, r.Fine, r.Min, r.Max} {
		for _, v := range col {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, w := range r.Bitmap.Words {
		b = le.AppendUint64(b, w)
	}
	return b
}

// crashOp is one step of the scripted crash-matrix workload. Region
// extraction is hoisted out (it is deterministic and crash-irrelevant),
// so each matrix iteration pays only for storage work.
type crashOp struct {
	name string
	run  func(db *DB) error
}

func crashWorkload(t *testing.T, o Options) []crashOp {
	t.Helper()
	ext, err := region.NewExtractor(o.Region)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, base, obj [3]float64, x, y, side int) crashOp {
		return crashAdd(t, ext, id, scene(base, obj, x, y, side))
	}
	rm := func(id string) crashOp {
		return crashOp{"remove " + id, func(db *DB) error {
			_, err := db.Remove(id)
			return err
		}}
	}
	return []crashOp{
		mk("a", green, red, 10, 10, 40),
		mk("b", gray, blue, 30, 30, 40),
		rm("a"),
		mk("c", green, yellow, 60, 60, 40),
		{"flush", func(db *DB) error { return db.Flush() }},
		mk("d", blue, red, 20, 20, 50),
		rm("b"),
	}
}

// crashAdd is the workload step that adds im under id, its regions
// extracted up front.
func crashAdd(t *testing.T, ext *region.Extractor, id string, im *imgio.Image) crashOp {
	t.Helper()
	regions, err := ext.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	return crashOp{"add " + id, func(db *DB) error {
		sh := soleShard(t, db)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		defer sh.publishLocked()
		return sh.addExtractedLocked(id, im, regions)
	}}
}

// crashGrowWorkload adds 48 images, removing one in five, then
// checkpoints. That is enough log for the write-ahead log to pass its
// first extension chunk (TestCrashMatrixLogExtension checks it does), so
// the log's zero extension and its in-place header rewrite fall inside
// the armed part of a run: Create's own checkpoint already extended the
// log once, before any kill point.
func crashGrowWorkload(t *testing.T, o Options) []crashOp {
	t.Helper()
	ext, err := region.NewExtractor(o.Region)
	if err != nil {
		t.Fatal(err)
	}
	palette := [][3]float64{green, red, blue, yellow, gray}
	var ops []crashOp
	for i := 0; i < 48; i++ {
		id := fmt.Sprintf("g%02d", i)
		base, obj := palette[i%5], palette[(i/5+i+1)%5]
		ops = append(ops, crashAdd(t, ext, id, scene(base, obj, 4+(i*7)%60, 4+(i*11)%60, 24+i%5*8)))
		if i%5 == 4 {
			victim := fmt.Sprintf("g%02d", i-2)
			ops = append(ops, crashOp{"remove " + victim, func(db *DB) error {
				_, err := db.Remove(victim)
				return err
			}})
		}
	}
	return append(ops, crashOp{"flush", func(db *DB) error { return db.Flush() }})
}

// crashSnapshot fingerprints the full logical state of a database: the
// image catalog, the payload directory, every live region's column bytes,
// and the set of live index entries. Two databases with equal snapshots
// hold the same committed operations.
func crashSnapshot(t *testing.T, sh *shard) string {
	t.Helper()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var b strings.Builder
	for i, im := range sh.images {
		fmt.Fprintf(&b, "img %d %q %dx%d %d+%d\n", i, im.ID, im.W, im.H, im.First, im.Count)
		for j := range im.Count {
			fmt.Fprintf(&b, "  region %d %x\n", j, sha256.Sum256(columnBytes(&sh.cols, im.First+j)))
		}
	}
	for i, ref := range sh.refs {
		fmt.Fprintf(&b, "ref %d image=%d local=%d rid=%d\n", i, ref.Image, ref.Local, ref.RID)
	}
	// Probe the whole index: the live entry set must match the live refs.
	dim := sh.opts.Region.Dim()
	mins := make([]float64, dim)
	maxs := make([]float64, dim)
	for i := range mins {
		mins[i], maxs[i] = -1e9, 1e9
	}
	world, err := rstar.NewRect(mins, maxs)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sh.tree.SearchAll(world)
	if err != nil {
		t.Fatalf("index probe during snapshot: %v", err)
	}
	payloads := make([]int64, 0, len(entries))
	for _, e := range entries {
		payloads = append(payloads, e.Data)
	}
	sort.Slice(payloads, func(i, j int) bool { return payloads[i] < payloads[j] })
	fmt.Fprintf(&b, "index %v\n", payloads)
	return b.String()
}

// runOracle executes the workload serially on a clean disk database and
// returns snapshots[i] = state after the first i operations.
func runOracle(t *testing.T, o Options, ops []crashOp) []string {
	t.Helper()
	dir := t.TempDir()
	db, err := Create(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snaps := []string{crashSnapshot(t, soleShard(t, db))}
	for _, op := range ops {
		if err := op.run(db); err != nil {
			t.Fatalf("oracle %s: %v", op.name, err)
		}
		snaps = append(snaps, crashSnapshot(t, soleShard(t, db)))
	}
	return snaps
}

// runToKill creates a database through the injector, arms the kill
// point, and runs the workload until an operation fails (or all
// complete). It returns the number of completed operations.
func runToKill(t *testing.T, o Options, ops []crashOp, in *crashfs.Injector, dir string, killAt int64, tear int) int {
	t.Helper()
	o.FS = in.Open
	db, err := Create(dir, o)
	if err != nil {
		t.Fatalf("Create before arming: %v", err)
	}
	in.Arm(killAt, tear)
	completed := 0
	for _, op := range ops {
		if err := op.run(db); err != nil {
			if !errors.Is(err, crashfs.ErrKilled) {
				t.Fatalf("op %s failed with a non-injected error: %v", op.name, err)
			}
			break
		}
		completed++
	}
	db.Close() // errors expected after the kill; just release descriptors
	return completed
}

// TestCrashMatrixAlwaysDurable enumerates kill points across a scripted
// workload under DurabilityAlways and asserts that recovery lands
// exactly on the serial oracle: the state after `completed` operations,
// or after one more (an operation can commit durably and then fail in
// its post-commit checkpoint work).
func TestCrashMatrixAlwaysDurable(t *testing.T) {
	o := testOptions()
	o.Durability = DurabilityAlways
	ops := crashWorkload(t, o)
	oracle := runOracle(t, o, ops)

	// Dry run through the injector (never killed) to size the matrix.
	probe := crashfs.New()
	total := int64(0)
	{
		dir := t.TempDir()
		if got := runToKill(t, o, ops, probe, dir, 0, -1); got != len(ops) {
			t.Fatalf("dry run completed %d/%d ops", got, len(ops))
		}
		total = probe.Ops()
	}
	if total < int64(len(ops)) {
		t.Fatalf("implausible op count %d", total)
	}

	budget := int64(100)
	if testing.Short() {
		budget = 25
	}
	stride := total / budget
	if stride < 1 {
		stride = 1
	}
	killed := 0
	for kill := int64(1); kill <= total; kill += stride {
		// Alternate clean kills and torn writes (persist an 8-byte
		// prefix of the killing write).
		tear := -1
		if kill%2 == 0 {
			tear = 8
		}
		if crashAndRecover(t, o, ops, oracle, kill, tear) {
			killed++
		}
	}
	if killed < 2 {
		t.Fatalf("crash matrix exercised only %d kill points (total ops %d)", killed, total)
	}
	killed += crashLogWrites(t, o, ops, oracle, probe.Trace())
	t.Logf("crash matrix: %d kill points over %d ops, stride %d", killed, total, stride)
}

// TestCrashMatrixLogExtension kills a workload that outgrows the log's
// first chunk at and around every zero extension and header rewrite of
// the write-ahead log, whole and torn, and requires recovery to land on
// the serial oracle as TestCrashMatrixAlwaysDurable does.
func TestCrashMatrixLogExtension(t *testing.T) {
	o := testOptions()
	o.Durability = DurabilityAlways
	ops := crashGrowWorkload(t, o)
	oracle := runOracle(t, o, ops)
	probe := crashfs.New()
	if got := runToKill(t, o, ops, probe, t.TempDir(), 0, -1); got != len(ops) {
		t.Fatalf("dry run completed %d/%d ops", got, len(ops))
	}
	trace := probe.Trace()
	extensions := 0
	for _, op := range trace {
		if isLogExtension(op) {
			extensions++
		}
	}
	if extensions == 0 {
		t.Fatal("the workload never extends the write-ahead log")
	}
	killed := crashLogWrites(t, o, ops, oracle, trace)
	t.Logf("%d kill points around %d log extensions over %d ops", killed, extensions, len(trace))
}

// isLogExtension reports whether op is a zero extension of the
// write-ahead log; isLogHeaderRewrite, whether it rewrites the log's
// header in place (a reset).
func isLogExtension(op crashfs.Op) bool {
	return filepath.Base(op.Path) == walFileName && op.Kind == crashfs.OpWrite && op.Zero && op.Len > 0
}

func isLogHeaderRewrite(op crashfs.Op) bool {
	return filepath.Base(op.Path) == walFileName && op.Kind == crashfs.OpWrite && op.Off == 0
}

// crashLogWrites kills the workload at every zero extension and header
// rewrite of the write-ahead log in trace (a dry run's), and at the
// operations on either side of them; the writes themselves are killed
// whole and torn at several points inside. It returns the number of kill
// points that triggered.
func crashLogWrites(t *testing.T, o Options, ops []crashOp, oracle []string, trace []crashfs.Op) int {
	t.Helper()
	killed := 0
	for i, op := range trace {
		if !isLogExtension(op) && !isLogHeaderRewrite(op) {
			continue
		}
		kill := int64(i + 1)
		for _, tear := range []int{-1, 1, 8, 20, op.Len / 2, op.Len - 1} {
			if crashAndRecover(t, o, ops, oracle, kill, tear) {
				killed++
			}
		}
		for _, near := range []int64{kill - 1, kill + 1} {
			if near >= 1 && near <= int64(len(trace)) && crashAndRecover(t, o, ops, oracle, near, -1) {
				killed++
			}
		}
	}
	return killed
}

// crashAndRecover runs the workload to the kill point, recovers the
// crashed directory, and requires the state of the serial oracle after
// exactly `completed` operations, or after one more (an operation can
// commit durably and then fail in its post-commit checkpoint work). It
// reports whether the kill point triggered.
func crashAndRecover(t *testing.T, o Options, ops []crashOp, oracle []string, kill int64, tear int) bool {
	t.Helper()
	in := crashfs.New()
	dir := t.TempDir()
	completed := runToKill(t, o, ops, in, dir, kill, tear)
	if !in.Killed() {
		// The workload finished before reaching this kill point (op
		// counts can shrink slightly with torn-write timing).
		return false
	}
	in.Arm(0, -1) // disarm: recovery sees the crashed disk image
	re, err := OpenFS(dir, in.Open)
	if err != nil {
		t.Fatalf("kill=%d tear=%d after %d ops: recovery failed: %v", kill, tear, completed, err)
	}
	got := crashSnapshot(t, soleShard(t, re))
	re.Close()
	if got != oracle[completed] && (completed+1 >= len(oracle) || got != oracle[completed+1]) {
		t.Fatalf("kill=%d tear=%d: recovered state matches neither oracle[%d] nor oracle[%d]",
			kill, tear, completed, completed+1)
	}
	return true
}

// TestCrashMatrixGroupCommit: under the default group-commit policy a
// crash may lose recent operations but recovery must still land on SOME
// serial prefix of the workload — never a torn or reordered state.
func TestCrashMatrixGroupCommit(t *testing.T) {
	o := testOptions()
	o.Durability = DurabilityGroupCommit
	ops := crashWorkload(t, o)
	oracle := runOracle(t, o, ops)

	probe := crashfs.New()
	dir := t.TempDir()
	if got := runToKill(t, o, ops, probe, dir, 0, -1); got != len(ops) {
		t.Fatalf("dry run completed %d/%d ops", got, len(ops))
	}
	total := probe.Ops()

	budget := int64(40)
	if testing.Short() {
		budget = 10
	}
	stride := total / budget
	if stride < 1 {
		stride = 1
	}
	for kill := int64(1); kill <= total; kill += stride {
		tear := -1
		if kill%3 == 0 {
			tear = 5
		}
		in := crashfs.New()
		dir := t.TempDir()
		completed := runToKill(t, o, ops, in, dir, kill, tear)
		if !in.Killed() {
			continue
		}
		in.Arm(0, -1)
		re, err := OpenFS(dir, in.Open)
		if err != nil {
			t.Fatalf("kill=%d after %d ops: recovery failed: %v", kill, completed, err)
		}
		got := crashSnapshot(t, soleShard(t, re))
		re.Close()
		found := false
		for i := 0; i <= completed+1 && i < len(oracle); i++ {
			if got == oracle[i] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("kill=%d: recovered state is not a serial prefix of the workload", kill)
		}
	}
}

// TestRecoveryReportsStats: a dirty reopen surfaces what recovery did.
func TestRecoveryReportsStats(t *testing.T) {
	o := testOptions()
	o.Durability = DurabilityAlways
	ops := crashWorkload(t, o)

	in := crashfs.New()
	dir := t.TempDir()
	// Kill well into the workload so the log holds committed records.
	probe := crashfs.New()
	if got := runToKill(t, o, ops, probe, t.TempDir(), 0, -1); got != len(ops) {
		t.Fatalf("dry run completed %d ops", got)
	}
	kill := probe.Ops() * 3 / 4
	completed := runToKill(t, o, ops, in, dir, kill, -1)
	if completed == 0 {
		t.Skipf("kill point %d fell before the first commit", kill)
	}
	in.Arm(0, -1)
	re, err := OpenFS(dir, in.Open)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reports, ok := re.Recovery()
	if !ok {
		t.Fatal("Recovery() not available on a disk-backed database")
	}
	stats := reports[0]
	if !stats.Replayed {
		t.Fatal("Replayed = false after a mid-workload crash")
	}
	if stats.RecordsScanned == 0 || stats.Commits == 0 {
		t.Fatalf("implausible recovery stats: %+v", stats)
	}

	// A clean close leaves nothing to replay.
	re.Close()
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if s2, _ := re2.Recovery(); s2[0].Replayed {
		t.Fatalf("Replayed = true after clean close: %+v", s2)
	}
}

// TestDurabilityAlwaysSurvivesImmediateCrash: once Add returns under
// DurabilityAlways, the image survives a crash with no clean shutdown.
func TestDurabilityAlwaysSurvivesImmediateCrash(t *testing.T) {
	o := testOptions()
	o.Durability = DurabilityAlways
	in := crashfs.New()
	dir := t.TempDir()
	o.FS = in.Open
	db, err := Create(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("survivor", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	// Crash: every subsequent disk operation fails, including Close.
	in.Arm(1, -1)
	db.Close()
	in.Arm(0, -1)

	re, err := OpenFS(dir, in.Open)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len = %d after crash recovery, want 1", re.Len())
	}
	if _, ok := soleShard(t, re).byID.get("survivor"); !ok {
		t.Fatal("committed image lost")
	}
	stats, _ := re.Recovery()
	if !stats[0].Replayed {
		t.Fatal("recovery did not replay the committed operation")
	}
}

// createFromState opens dir with the real filesystem and renders what it
// holds: its options, its ids in order, then the rankings of queries. It
// returns Open's error when Open fails.
func createFromState(t *testing.T, dir string, queries []*imgio.Image) (state string, err error) {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		return "", err
	}
	defer db.Close()
	ids := db.IDs()
	sort.Strings(ids)
	return fmt.Sprintf("%s\nids %v\n%s", optionsState(db.Options()), ids, shardRankings(t, db, queries, DefaultQueryParams())), nil
}

// optionsState renders the options a database was created with, FS
// apart: Open is given none.
func optionsState(o Options) string {
	o.FS = nil
	return fmt.Sprintf("options %+v", o)
}

// rebuildWindow returns the kill points, 1-based and inclusive, at which
// the shard in dir has its rebuild marker on disk but not yet the
// checkpoint record that retires it: from the one after the marker's
// sync through the checkpoint record's write. A CreateFrom shard's log
// holds the marker as its first record and the checkpoint as its last:
// every other log write is a header. It fails if the page file's header,
// which names every page reachable on Open, is rewritten before the
// marker: pages written before then are unreachable blanks.
func rebuildWindow(t *testing.T, trace []crashfs.Op, dir string) (from, to int64) {
	t.Helper()
	walPath := filepath.Join(dir, walFileName)
	marker, markerSync, ckpt, headers := -1, -1, -1, 0
	for i, op := range trace {
		if filepath.Dir(op.Path) != dir {
			continue
		}
		switch {
		case op.Path == walPath && op.Kind == crashfs.OpWrite && op.Off > 0:
			if marker < 0 {
				marker = i
			}
			ckpt = i
		case op.Path == walPath && op.Kind == crashfs.OpSync && marker >= 0 && markerSync < 0:
			markerSync = i
		case marker < 0 && op.Path != walPath && op.Kind == crashfs.OpWrite && op.Off == 0:
			if headers++; headers > 1 {
				t.Fatalf("%s: page file header rewritten before the rebuild marker", dir)
			}
		}
	}
	if markerSync < 0 || ckpt <= markerSync {
		t.Fatalf("%s: no rebuild marker sync followed by a checkpoint in the trace", dir)
	}
	return int64(markerSync) + 2, int64(ckpt) + 1
}

// TestCrashCreateFromNeverPartial kills a seeded CreateFrom at every
// mutating file operation, at one and three shards, and so does the same
// with no items, which is Create. After each kill, Open of the database
// and of each shard directory it created must fail, or succeed with
// exactly that directory's full item set, the options it was given and
// the rankings of a run with no crash; a half-built database, or an empty
// one standing in for items, must never open. Between the sync of a
// shard's rebuild marker and its checkpoint record, Open of that shard
// must fail with the interrupted-rebuild error. A multi-shard database
// never opens after a kill: its manifest is written only once every shard
// is complete.
func TestCrashCreateFromNeverPartial(t *testing.T) {
	corpus := corpus50(t)[:8]
	queries := []*imgio.Image{corpus[0].Image, corpus[3].Image, corpus[7].Image}
	for _, run := range []struct {
		name  string
		items []BatchItem
	}{{"", corpus}, {"empty/", nil}} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%sshards=%d", run.name, shards), func(t *testing.T) {
				crashCreateFrom(t, run.items, shards, queries)
			})
		}
	}
}

// crashCreateFrom is one TestCrashCreateFromNeverPartial run: items at
// shards shards.
func crashCreateFrom(t *testing.T, items []BatchItem, shards int, queries []*imgio.Image) {
	o := testOptions()
	o.Shards = shards
	dirs := []string{""}
	if shards > 1 {
		dirs = dirs[:0]
		for i := range shards {
			dirs = append(dirs, shardDirName(i))
		}
	}

	// The run with no crash, through the injector to trace it.
	probe := crashfs.New()
	clean := t.TempDir()
	o.FS = probe.Open
	db, err := CreateFrom(clean, o, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	trace := probe.Trace()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Each directory in dirs opens as one shard.
	given := o
	given.Shards = 1
	want := make([]string, len(dirs))
	windows := make([][2]int64, len(dirs))
	for i, d := range dirs {
		if want[i], err = createFromState(t, filepath.Join(clean, d), queries); err != nil {
			t.Fatalf("open %q after the clean run: %v", d, err)
		}
		if !strings.HasPrefix(want[i], optionsState(given)+"\n") {
			t.Fatalf("open %q after the clean run restored other options:\n%s\nwant:\n%s", d, want[i], optionsState(given))
		}
		windows[i][0], windows[i][1] = rebuildWindow(t, trace, filepath.Join(clean, d))
	}

	refused := 0
	for kill := int64(1); kill <= int64(len(trace)); kill++ {
		in := crashfs.New()
		in.Arm(kill, -1)
		o.FS = in.Open
		dir := t.TempDir()
		db, err := CreateFrom(dir, o, items, 1)
		if err == nil {
			db.Close()
			t.Fatalf("kill=%d: CreateFrom succeeded", kill)
		}
		if !errors.Is(err, crashfs.ErrKilled) {
			t.Fatalf("kill=%d: CreateFrom failed with a non-injected error: %v", kill, err)
		}
		if shards > 1 {
			if _, err := createFromState(t, dir, queries); err == nil {
				t.Fatalf("kill=%d: a %d-shard database opened after a crashed CreateFrom", kill, shards)
			}
		}
		for i, d := range dirs {
			got, err := createFromState(t, filepath.Join(dir, d), queries)
			inWindow := kill >= windows[i][0] && kill <= windows[i][1]
			switch {
			case inWindow && (err == nil || !strings.Contains(err.Error(), "bulk rebuild") || !strings.Contains(err.Error(), "was interrupted")):
				t.Fatalf("kill=%d, shard dir %q: Open = %v, want the interrupted-rebuild error", kill, d, err)
			case inWindow:
				refused++
			case err == nil && got != want[i]:
				t.Fatalf("kill=%d, shard dir %q: Open succeeded with a state the clean run never had:\n%s\nwant:\n%s", kill, d, got, want[i])
			}
		}
	}
	if refused == 0 {
		t.Fatal("no kill point reached the interrupted-rebuild refusal")
	}
	t.Logf("%d kill points, %d interrupted-rebuild refusals", len(trace), refused)
}
