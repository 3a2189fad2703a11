// Fixture for the lockdiscipline analyzer: a struct with a documented
// RWMutex whose guarded fields are touched with and without the lock.
package lockfix

import "sync"

type counter struct {
	mu sync.RWMutex
	n  int            // guarded by mu
	m  map[string]int // guarded by mu

	hint string // unguarded: informational only
}

func (c *counter) Good() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

func (c *counter) GoodWrite(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = v
}

func (c *counter) BadRead() int {
	return c.n // want `c.n is guarded by mu but read without holding it`
}

func (c *counter) BadWrite(v int) {
	c.n = v // want `c.n is guarded by mu but written without holding it`
}

func (c *counter) BadMapWrite(k string, v int) {
	c.m[k] = v // want `c.m is guarded by mu but written without holding it`
}

func (c *counter) WriteUnderRLock(v int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.n = v // want `c.n written under mu.RLock\(\); writes require the exclusive lock`
}

func (c *counter) Upgrade() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.mu.Lock() // want `c.mu.Lock\(\) while mu.RLock\(\) is held: RWMutex upgrade deadlocks`
	c.n++
	c.mu.Unlock()
}

func (c *counter) Unguarded() string {
	return c.hint // not guarded: allowed
}

// bumpLocked is exempt by the Locked naming convention.
func (c *counter) bumpLocked() {
	c.n++
}

// fleet is a guarded object holding references to other guarded
// objects (its shards).
type fleet struct {
	mu     sync.Mutex
	policy int // guarded by mu
	parts  []*counter
}

// Good: the fleet locks its own mu and reaches shards through methods.
func (f *fleet) GoodFanout(v int) {
	f.mu.Lock()
	f.policy = v
	f.mu.Unlock()
	for _, c := range f.parts {
		c.GoodWrite(v)
	}
}

// BadCross reaches into a shard's private mutex instead of calling one
// of its methods.
func (f *fleet) BadCross(v int) {
	f.parts[0].mu.Lock()   // want `f.parts\[0\].mu.Lock\(\) inside fleet.BadCross acquires another counter's private mutex; call a counter method instead`
	f.parts[0].mu.Unlock() // want `f.parts\[0\].mu.Unlock\(\) inside fleet.BadCross acquires another counter's private mutex; call a counter method instead`
}

// BadCrossAlias does the same through a local alias; the check is
// type-based, so the rename does not evade it.
func (f *fleet) BadCrossAlias() int {
	c := f.parts[0]
	c.mu.RLock() // want `c.mu.RLock\(\) inside fleet.BadCrossAlias acquires another counter's private mutex; call a counter method instead`
	n := c.n
	c.mu.RUnlock() // want `c.mu.RUnlock\(\) inside fleet.BadCrossAlias acquires another counter's private mutex; call a counter method instead`
	return n
}

// db mirrors the root package's DB: it holds guarded shards but no mutex
// of its own, and its methods are held to the cross-object rule all the
// same.
type db struct {
	parts []*counter
}

// Good: shards are reached through their methods.
func (d *db) GoodFanout(v int) {
	for _, c := range d.parts {
		c.GoodWrite(v)
	}
}

func (d *db) BadCross() {
	d.parts[0].mu.Lock()   // want `d.parts\[0\].mu.Lock\(\) inside db.BadCross acquires another counter's private mutex; call a counter method instead`
	d.parts[0].mu.Unlock() // want `d.parts\[0\].mu.Unlock\(\) inside db.BadCross acquires another counter's private mutex; call a counter method instead`
}
