package walrus

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/imgio"
	"walrus/internal/store"
)

// routedOpener injects faults only into files under one shard's
// directory; every other shard gets the real filesystem. This is how
// the crash matrix kills one shard's WAL mid-operation while the rest
// of the fleet keeps committing.
func routedOpener(in *crashfs.Injector, victim int) FileOpener {
	marker := shardDirName(victim) + string(os.PathSeparator)
	return func(path string, flag int) (store.File, error) {
		if strings.Contains(path, marker) {
			return in.Open(path, flag)
		}
		return os.OpenFile(path, flag, 0o644)
	}
}

// idsHashingTo returns count ids with the given prefix that shardOf
// routes to shard k out of n.
func idsHashingTo(t *testing.T, n, k, count int, prefix string) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < count; i++ {
		if i > 100000 {
			t.Fatalf("no ids with prefix %q hash to shard %d/%d", prefix, k, n)
		}
		id := fmt.Sprintf("%s-%03d", prefix, i)
		if shardOf(id, n) == k {
			out = append(out, id)
		}
	}
	return out
}

// shardCrashOp is one step of the sharded crash workload.
type shardCrashOp struct {
	name string
	// victim marks ops whose commit touches the victim shard; ops
	// without it must keep succeeding after the victim is killed.
	victim bool
	run    func(s *DB) error
}

// shardCrashScript builds the workload: single-shard adds and removes
// on and off the victim, one cross-shard AddBatch, and a fleet flush.
func shardCrashScript(t *testing.T, nShards, victim int) []shardCrashOp {
	t.Helper()
	v := idsHashingTo(t, nShards, victim, 4, "v")
	h0 := idsHashingTo(t, nShards, 0, 3, "h")
	h2 := idsHashingTo(t, nShards, 2, 3, "k")
	im := func(i int) *imgio.Image { return scene(green, red, (i*9)%70, (i*13)%70, 40) }
	add := func(id string, i int, victimTouch bool) shardCrashOp {
		image := im(i)
		return shardCrashOp{"add " + id, victimTouch, func(s *DB) error {
			return s.Add(id, image)
		}}
	}
	batch := []BatchItem{
		{ID: h0[1], Image: im(10)},
		{ID: v[1], Image: im(11)},
		{ID: h2[1], Image: im(12)},
	}
	return []shardCrashOp{
		add(v[0], 0, true),
		add(h0[0], 1, false),
		add(h2[0], 2, false),
		{"cross-shard batch", true, func(s *DB) error { return s.AddBatch(batch, 0) }},
		{"remove " + v[0], true, func(s *DB) error {
			_, err := s.Remove(v[0])
			return err
		}},
		add(v[2], 3, true),
		add(h0[2], 4, false),
		{"flush", true, func(s *DB) error { return s.Flush() }},
		add(v[3], 5, true),
		add(h2[2], 6, false),
	}
}

// shardCrashOracle runs the script cleanly and returns
// states[opCount][shard] — each shard's logical fingerprint after the
// first opCount operations.
func shardCrashOracle(t *testing.T, o Options, ops []shardCrashOp) [][]string {
	t.Helper()
	s, err := Create(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := func() []string {
		per := make([]string, len(s.shards))
		for k, sh := range s.shards {
			per[k] = crashSnapshot(t, sh)
		}
		return per
	}
	states := [][]string{snap()}
	for _, op := range ops {
		if err := op.run(s); err != nil {
			t.Fatalf("oracle %s: %v", op.name, err)
		}
		states = append(states, snap())
	}
	return states
}

// TestShardCrashVictimWAL is the sharded crash matrix: kill points are
// enumerated over one shard's WAL and page file while the rest of the
// fleet keeps committing. After each kill the whole directory is
// reopened with OpenFS (per-shard replay) and the matrix asserts:
//
//   - every healthy shard holds exactly its full workload — ops routed
//     to healthy shards must keep succeeding after the victim dies,
//     including their sub-batches of the cross-shard AddBatch;
//   - the victim recovers to its own consistent version: precisely the
//     state after its last successfully committed operation, or one
//     more (an op can commit durably, then die in post-commit work);
//   - no torn batch is visible anywhere: each shard's sub-batch of the
//     cross-shard AddBatch is all-or-nothing, because every allowed
//     recovery state is an op boundary of the per-shard oracle.
func TestShardCrashVictimWAL(t *testing.T) {
	const nShards = 3
	const victim = 1
	o := testOptions()
	o.Durability = DurabilityAlways
	o.Shards = nShards
	ops := shardCrashScript(t, nShards, victim)
	oracle := shardCrashOracle(t, o, ops)
	final := oracle[len(oracle)-1]

	// Global op indices of the victim-touching subsequence: allowed
	// recovery states are expressed in completed victim ops.
	var victimOps []int
	for i, op := range ops {
		if op.victim {
			victimOps = append(victimOps, i)
		}
	}

	// runScript drives the workload on a killable fleet. Once the kill
	// point fires, victim-touching ops may fail with the injected error
	// or any follow-on error of the dead shard; healthy-only ops must
	// keep succeeding regardless. Returns the number of victim-touching
	// ops committed before the kill (an op that returns nil committed
	// durably under DurabilityAlways even if the kill hit its post-commit
	// work).
	runScript := func(s *DB, in *crashfs.Injector) int {
		t.Helper()
		victimDone := 0
		for _, op := range ops {
			wasKilled := in.Killed()
			err := op.run(s)
			switch {
			case err == nil:
				if op.victim && !wasKilled {
					victimDone++
				}
			case !in.Killed():
				t.Fatalf("op %s failed before any injected kill: %v", op.name, err)
			case !op.victim:
				t.Fatalf("healthy-only op %s failed after the victim kill: %v", op.name, err)
			case !errors.Is(err, crashfs.ErrKilled) && !wasKilled:
				t.Fatalf("op %s at the kill point failed with a non-injected error: %v", op.name, err)
			}
		}
		return victimDone
	}

	// Dry run through the routed injector (never armed) to size the
	// matrix in victim file operations.
	probe := crashfs.New()
	{
		po := o
		po.FS = routedOpener(probe, victim)
		s, err := Create(t.TempDir(), po)
		if err != nil {
			t.Fatal(err)
		}
		probe.Arm(0, -1)
		if got := runScript(s, probe); got != len(victimOps) {
			t.Fatalf("dry run completed %d/%d victim ops", got, len(victimOps))
		}
		s.Close()
	}
	total := probe.Ops()
	if total < int64(len(victimOps)) {
		t.Fatalf("implausible victim op count %d", total)
	}

	budget := int64(12)
	if testing.Short() {
		budget = 6
	}
	stride := total / budget
	if stride < 1 {
		stride = 1
	}
	killed, replays := 0, 0
	for kill := int64(1); kill <= total; kill += stride {
		tear := -1
		if kill%2 == 0 {
			tear = 8
		}
		in := crashfs.New()
		dir := t.TempDir()
		ko := o
		ko.FS = routedOpener(in, victim)
		s, err := Create(dir, ko)
		if err != nil {
			t.Fatalf("kill=%d: Create before arming: %v", kill, err)
		}
		in.Arm(kill, tear)
		victimDone := runScript(s, in)
		s.Close() // victim close errors are expected; release descriptors
		if !in.Killed() {
			continue
		}
		killed++
		in.Arm(0, -1) // disarm: recovery sees the crashed disk image

		re, err := OpenFS(dir, ko.FS)
		if err != nil {
			t.Fatalf("kill=%d tear=%d after %d victim ops: recovery failed: %v", kill, tear, victimDone, err)
		}
		rs, ok := re.Recovery()
		if !ok || len(rs) != nShards {
			t.Fatalf("kill=%d: Recovery() = (%d reports, %v)", kill, len(rs), ok)
		}
		if rs[victim].Replayed {
			replays++
		}
		for k := 0; k < nShards; k++ {
			got := crashSnapshot(t, re.shards[k])
			if k != victim {
				if got != final[k] {
					t.Fatalf("kill=%d: healthy shard %d lost committed work (victim ops done: %d)", kill, k, victimDone)
				}
				continue
			}
			// The victim must land exactly on its own op boundary:
			// after victimDone committed ops, or one further.
			allowed := []string{}
			if victimDone == 0 {
				allowed = append(allowed, oracle[0][victim])
			} else {
				allowed = append(allowed, oracle[victimOps[victimDone-1]+1][victim])
			}
			if victimDone < len(victimOps) {
				allowed = append(allowed, oracle[victimOps[victimDone]+1][victim])
			}
			match := false
			for _, want := range allowed {
				if got == want {
					match = true
					break
				}
			}
			if !match {
				t.Fatalf("kill=%d tear=%d: victim shard recovered to a state that is no op boundary (victim ops done: %d)",
					kill, tear, victimDone)
			}
		}
		re.Close()
	}
	if killed < 2 {
		t.Fatalf("sharded crash matrix exercised only %d kill points (total victim ops %d)", killed, total)
	}
	if replays < 1 {
		t.Fatalf("no kill point drove the victim through WAL replay (%d kills)", killed)
	}
	t.Logf("sharded crash matrix: %d kill points over %d victim file ops, stride %d, %d WAL replays",
		killed, total, stride, replays)
}
