package walrus

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/region"
)

// TestIDIndexMatchesMap drives random sets and deletes through the
// copy-on-write id index, publishing at random points, and checks every
// published version against a plain map copied at the same moment: no
// later write may leak into an earlier version.
func TestIDIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var w idIndexWriter
	model := map[string]int{}
	type version struct {
		x    idIndex
		want map[string]int
	}
	var versions []version
	for op := 0; op < 20000; op++ {
		id := fmt.Sprintf("id-%d", rng.Intn(3000))
		if rng.Intn(3) == 0 {
			_, had := model[id]
			if got := w.delete(id); got != had {
				t.Fatalf("op %d: delete(%q) = %v, want %v", op, id, got, had)
			}
			delete(model, id)
		} else {
			w.set(id, op)
			model[id] = op
		}
		if rng.Intn(50) == 0 {
			versions = append(versions, version{w.publish(), maps.Clone(model)})
		}
	}
	versions = append(versions, version{w.publish(), model})
	for vi, v := range versions {
		if v.x.len() != len(v.want) {
			t.Fatalf("version %d: len %d, want %d", vi, v.x.len(), len(v.want))
		}
		for i := 0; i < 3000; i++ {
			id := fmt.Sprintf("id-%d", i)
			got, ok := v.x.get(id)
			want, wantOK := v.want[id]
			if ok != wantOK || got != want {
				t.Fatalf("version %d: get(%q) = %d, %v; want %d, %v", vi, id, got, ok, want, wantOK)
			}
		}
	}
}

// sameChunkID returns an id other than id in id's index chunk and, for
// shards > 1, in its shard too, so removing it rewrites the chunk a
// pinned snapshot reads id from.
func sameChunkID(id string, shards int) string {
	for i := 0; ; i++ {
		c := fmt.Sprintf("n%d", i)
		if chunkOf(c) == chunkOf(id) && shardOf(c, shards) == shardOf(id, shards) {
			return c
		}
	}
}

// TestIDIndexPinnedVersions: a snapshot pinned before an Add, a Remove, a
// re-Add of the removed id with other pixels, and the removal of an id in
// the same index chunk keeps answering Len, IDs, RegionsOf and QueryByID
// as of its own version, on a DB and on a Sharded fleet.
func TestIDIndexPinnedVersions(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idIndexPinnedVersions(t, shards)
		})
	}
}

func idIndexPinnedVersions(t *testing.T, shards int) {
	mate := sameChunkID("a", shards)
	images := map[string]*imgio.Image{
		"a":  scene(green, red, 10, 10, 40),
		"a2": scene(gray, yellow, 60, 20, 40),
		"b":  scene(gray, blue, 30, 30, 40),
		mate: scene(blue, yellow, 20, 50, 40),
		"d":  scene(green, blue, 50, 50, 40),
	}
	type step struct {
		op, id, img string // op "add" or "remove"
	}
	steps := []step{
		{"add", "a", "a"}, {"add", "b", "b"}, {"add", mate, mate},
		{"add", "d", "d"}, {"remove", "a", ""}, {"add", "a", "a2"}, {"remove", mate, ""},
	}

	o := testOptions()
	o.Shards = shards
	db, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	add, remove := db.Add, db.Remove
	snapshot := func() (*Snapshot, func()) {
		s, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s, s.Release
	}

	// Expected state per pinned snapshot: live ids in insertion order,
	// each with the image it was added from.
	type pinned struct {
		r     *Snapshot
		ids   []string
		imgOf map[string]string
	}
	var pins []pinned
	var live []string
	imgOf := map[string]string{}
	regionsOf := map[string][]region.Region{} // by image key
	for _, st := range steps {
		r, release := snapshot()
		defer release()
		pins = append(pins, pinned{r, append([]string(nil), live...), maps.Clone(imgOf)})
		switch st.op {
		case "add":
			if err := add(st.id, images[st.img]); err != nil {
				t.Fatal(err)
			}
			live = append(live, st.id)
			imgOf[st.id] = st.img
		case "remove":
			if ok, err := remove(st.id); err != nil || !ok {
				t.Fatalf("Remove(%q) = %v, %v", st.id, ok, err)
			}
			for i, id := range live {
				if id == st.id {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			delete(imgOf, st.id)
		}
		if st.op == "add" {
			cur, release := snapshot()
			regs, ok := cur.RegionsOf(st.id)
			release()
			if !ok || len(regs) == 0 {
				t.Fatalf("added %q has no regions", st.id)
			}
			regionsOf[st.img] = regs
		}
	}
	r, release := snapshot()
	defer release()
	pins = append(pins, pinned{r, live, imgOf})
	if reflect.DeepEqual(regionsOf["a"], regionsOf["a2"]) {
		t.Fatal("fixture: re-added pixels give the same regions")
	}

	all := []string{"a", "b", mate, "d"}
	for pi, p := range pins {
		want := append([]string(nil), p.ids...)
		if shards > 1 {
			sort.Strings(want)
		}
		if got := p.r.IDs(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("pin %d: IDs = %v, want %v", pi, got, want)
		}
		if p.r.Len() != len(p.ids) {
			t.Fatalf("pin %d: Len = %d, want %d", pi, p.r.Len(), len(p.ids))
		}
		for _, id := range all {
			img, present := p.imgOf[id]
			regs, ok := p.r.RegionsOf(id)
			if ok != present {
				t.Fatalf("pin %d: RegionsOf(%q) ok = %v, want %v", pi, id, ok, present)
			}
			matches, _, err := p.r.QueryByID(context.Background(), id, DefaultQueryParams())
			if !present {
				if !errors.Is(err, ErrUnknownID) {
					t.Fatalf("pin %d: QueryByID(%q) err = %v, want ErrUnknownID", pi, id, err)
				}
				continue
			}
			if !reflect.DeepEqual(regs, regionsOf[img]) {
				t.Fatalf("pin %d: RegionsOf(%q) are not those of image %q", pi, id, img)
			}
			if err != nil {
				t.Fatalf("pin %d: QueryByID(%q): %v", pi, id, err)
			}
			if len(matches) == 0 || matches[0].ID != id || matches[0].Similarity != 1 {
				t.Fatalf("pin %d: QueryByID(%q) top match %+v, want itself at 1", pi, id, matches)
			}
			for _, m := range matches {
				if _, ok := p.imgOf[m.ID]; !ok {
					t.Fatalf("pin %d: QueryByID(%q) matched %q, not in the pinned version", pi, id, m.ID)
				}
			}
		}
	}
}

// TestIDIndexConcurrentReaders runs one writer (adds, removes, re-adds)
// against readers that resolve ids lock-free on every version they pin.
// The writer records each version's id set before publishing the next
// one; a reader fails on any version whose lookups disagree with it, and
// the race detector (CI snapshot tier) fails on any unsynchronized write
// to a published chunk.
func TestIDIndexConcurrentReaders(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	pics := []*imgio.Image{
		scene(green, red, 10, 10, 40), scene(gray, blue, 30, 30, 40),
		scene(blue, yellow, 20, 50, 40), scene(green, blue, 50, 50, 40),
	}
	ids := make([]string, 24)
	for i := range ids {
		ids[i] = fmt.Sprintf("img-%02d", i)
	}
	var states sync.Map // version -> map[string]bool
	states.Store(db.VersionVector()[0], map[string]bool{})
	var done atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer done.Store(true)
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				s, err := db.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				want, ok := states.Load(s.VersionVector()[0])
				for !ok && !done.Load() {
					// The writer records a version just after publishing it.
					runtime.Gosched()
					want, ok = states.Load(s.VersionVector()[0])
				}
				if !ok {
					s.Release()
					return
				}
				live := want.(map[string]bool)
				if s.Len() != len(live) {
					errs <- fmt.Errorf("version %d: Len %d, want %d", s.VersionVector()[0], s.Len(), len(live))
				}
				for _, id := range ids {
					if _, got := s.RegionsOf(id); got != live[id] {
						errs <- fmt.Errorf("version %d: RegionsOf(%q) ok = %v, want %v", s.VersionVector()[0], id, got, live[id])
					}
				}
				s.Release()
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	live := map[string]bool{}
	for op := 0; op < 150; op++ {
		id := ids[rng.Intn(len(ids))]
		if live[id] {
			if _, err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		} else {
			if err := db.Add(id, pics[rng.Intn(len(pics))]); err != nil {
				t.Fatal(err)
			}
			live[id] = true
		}
		states.Store(db.VersionVector()[0], maps.Clone(live))
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIDIndexWriteBytesFlat: the bytes one write after a publish
// allocates in the id index (the chunk-pointer header plus the touched
// chunk) agree within 2x at 1 000 and at 20 000 ids. Cloning a single map,
// as the catalog did before the index was chunked, grows 20x between the
// two.
func TestIDIndexWriteBytesFlat(t *testing.T) {
	perWrite := func(n int) float64 {
		var w idIndexWriter
		for i := 0; i < n; i++ {
			w.set(fmt.Sprintf("img-%06d", i), i)
		}
		ids := make([]string, 1000)
		for i := range ids {
			ids[i] = fmt.Sprintf("new-%06d", i)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, id := range ids {
			w.publish()
			w.set(id, n+i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ids))
	}
	small, large := perWrite(1000), perWrite(20000)
	t.Logf("bytes per write after publish: %.0f at 1k ids, %.0f at 20k ids", small, large)
	if large > 2*small {
		t.Fatalf("bytes per write grow with the index: %.0f at 1k ids, %.0f at 20k", small, large)
	}
}
