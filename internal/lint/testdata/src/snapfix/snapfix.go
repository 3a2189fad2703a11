// Fixture for the snapshotsafe analyzer: a miniature of the root
// package's snapshot layer — the per-shard shardSnapshot over a snapCore
// and the public Snapshot pinning one per shard — with methods that
// respect and violate the two contract halves (lock-free reads,
// immutable published state).
package snapfix

//walrus:lint-scope snapshotsafe

import "sync"

type snapCore struct {
	version uint64
	ids     []string
	byID    map[string]int
	counts  []int
}

type DB struct {
	mu   sync.RWMutex
	core *snapCore
}

// shardSnapshot mirrors the root package's per-shard pinned view.
type shardSnapshot struct {
	core *snapCore
	db   *DB
}

// Good: reads only.
func (s *shardSnapshot) Len() int { return len(s.core.ids) }

func (s *shardSnapshot) Lookup(id string) (int, bool) {
	idx, ok := s.core.byID[id]
	return idx, ok
}

// Good: writes to locals and parameters are not snapshot mutations.
func (s *shardSnapshot) Collect(out []string) []string {
	for _, id := range s.core.ids {
		out = append(out, id)
	}
	return out
}

func (s *shardSnapshot) BadLock() int {
	s.db.mu.RLock() // want `snapshot methods are lock-free by contract: s.db.mu.RLock must not acquire a mutex inside shardSnapshot.BadLock`
	n := len(s.core.ids)
	s.db.mu.RUnlock() // want `snapshot methods are lock-free by contract: s.db.mu.RUnlock must not acquire a mutex inside shardSnapshot.BadLock`
	return n
}

func (s *shardSnapshot) BadWriteField() {
	s.core.version = 99 // want `snapshot state is immutable: s.core.version is written inside shardSnapshot.BadWriteField`
}

func (s *shardSnapshot) BadWriteSlice(i int) {
	s.core.ids[i] = "" // want `snapshot state is immutable: s.core.ids\[i\] is written inside shardSnapshot.BadWriteSlice`
}

func (s *shardSnapshot) BadIncDec() {
	s.core.counts[0]++ // want `snapshot state is immutable: s.core.counts\[0\] is written inside shardSnapshot.BadIncDec`
}

func (s *shardSnapshot) BadDelete(id string) {
	delete(s.core.byID, id) // want `snapshot state is immutable: delete from s.core.byID mutates published snapshot state in shardSnapshot.BadDelete`
}

// BadAlias mutates through a local alias of the core: the check is
// type-based, so renaming the path does not evade it.
func (s *shardSnapshot) BadAlias() {
	core := s.core
	core.version = 1 // want `snapshot state is immutable: core.version is written inside shardSnapshot.BadAlias`
}

// BadWriteOwn writes the per-shard view's own field: shardSnapshot is
// snapshot state in its own right, not only through its core.
func (s *shardSnapshot) BadWriteOwn(c *snapCore) {
	s.core = c // want `snapshot state is immutable: s.core is written inside shardSnapshot.BadWriteOwn`
}

// mutate exists so unrelated methods of other receivers stay unchecked.
func (db *DB) mutate() {
	db.mu.Lock()
	db.core.version++
	db.mu.Unlock()
}

// Snapshot mirrors the root package's public view: one pinned
// shardSnapshot per shard. Its methods are held to the same contract.
type Snapshot struct {
	snaps []shardSnapshot
	db    *DB
}

// Good: pure fan-out reads.
func (ss *Snapshot) Len() int {
	n := 0
	for i := range ss.snaps {
		n += ss.snaps[i].Len()
	}
	return n
}

func (ss *Snapshot) BadLock() int {
	ss.db.mu.RLock() // want `snapshot methods are lock-free by contract: ss.db.mu.RLock must not acquire a mutex inside Snapshot.BadLock`
	n := len(ss.snaps)
	ss.db.mu.RUnlock() // want `snapshot methods are lock-free by contract: ss.db.mu.RUnlock must not acquire a mutex inside Snapshot.BadLock`
	return n
}

func (ss *Snapshot) BadWriteOwn(i int) {
	ss.snaps[i] = shardSnapshot{} // want `snapshot state is immutable: ss.snaps\[i\] is written inside Snapshot.BadWriteOwn`
}

// BadWriteThrough mutates one shard's pinned snapshot state: the chain
// crosses Snapshot, shardSnapshot and snapCore, any of which convicts.
func (ss *Snapshot) BadWriteThrough() {
	ss.snaps[0].core.version = 9 // want `snapshot state is immutable: ss.snaps\[0\].core.version is written inside Snapshot.BadWriteThrough`
}
