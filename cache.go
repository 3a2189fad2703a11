package walrus

import (
	"container/list"
	"context"
	"math"
	"sync"
	"time"

	"walrus/internal/imgio"
)

// The query result cache. It keeps two things per query: the query as
// the pipeline consumes it — the regions extracted from the pixels, their
// bitmaps laid out flat, the image's area — and the last answer, stamped
// with the version it was computed at. The two halves of a query's cost
// age differently: no write can change what a query image extracts to,
// while every write can change the answer. So the key holds only the
// query fingerprint and the resolved parameters, and the version is a
// stamp beside the answer. A lookup whose stamp equals the pinned version
// is a hit and serves the answer. A lookup whose stamp differs is a miss
// that skips extraction: it probes and scores the pinned version from the
// stored query, then replaces the answer and the stamp in place. A stale
// answer is never served, and a committed write needs no invalidation
// hook: the next lookup sees a new version. The query front stamps with
// the pinned version of a one-shard database and with a hash of the
// version vector on more shards. A scene query reaches the cache already
// resolved to its crop, so it shares its entry with a pixels query of the
// same crop scored by the query-only denominator. An id query is
// re-resolved against its own pinned version on every lookup, so its
// entry keeps the answer alone: the stored regions of an id can change
// with a write, and they alias the catalog of the version they came from.

// cacheKey identifies one cacheable query result. QueryParams is
// comparable, so the key works directly as a map key; canonicalParams
// zeroes the fields that cannot affect results.
type cacheKey struct {
	query  uint64
	params QueryParams
}

// canonicalParams strips the result-neutral field from the key: NoCache
// never reaches the cache.
func canonicalParams(p QueryParams) QueryParams {
	p.NoCache = false
	return p
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit word into the hash: FNV-1a's xor-multiply
// taken a word at a time, with an extra fold-and-multiply so high-byte
// differences avalanche. Word-at-a-time matters: a cache hit pays one
// mix per query pixel, and the byte-wise variant would cost as much as
// a small query.
func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime64
	h ^= h >> 32
	h *= fnvPrime64
	return h
}

// hashQueryImage fingerprints a query image: a domain tag, its
// dimensions and the bits of every sample. The samples are dealt round
// robin to eight lanes, each an independent fnvMix chain seeded by its
// lane number, and the lanes are folded into the header's hash in order
// at the end. One chain waits on its previous multiply for every
// sample; eight keep the multiplier busy, so a 128×85 query hashes about
// three times faster (BenchmarkQueryFingerprint). A lane's samples and
// its place in the final fold fix which positions it covers, so moving a
// sample to another position changes the key.
func hashQueryImage(im *imgio.Image) uint64 {
	l0, l1, l2, l3 := fnvMix(fnvOffset64, 0), fnvMix(fnvOffset64, 1), fnvMix(fnvOffset64, 2), fnvMix(fnvOffset64, 3)
	l4, l5, l6, l7 := fnvMix(fnvOffset64, 4), fnvMix(fnvOffset64, 5), fnvMix(fnvOffset64, 6), fnvMix(fnvOffset64, 7)
	pix := im.Pix
	n := len(pix) &^ 7
	for i := 0; i < n; i += 8 {
		s := pix[i : i+8 : i+8]
		l0 = fnvMix(l0, math.Float64bits(s[0]))
		l1 = fnvMix(l1, math.Float64bits(s[1]))
		l2 = fnvMix(l2, math.Float64bits(s[2]))
		l3 = fnvMix(l3, math.Float64bits(s[3]))
		l4 = fnvMix(l4, math.Float64bits(s[4]))
		l5 = fnvMix(l5, math.Float64bits(s[5]))
		l6 = fnvMix(l6, math.Float64bits(s[6]))
		l7 = fnvMix(l7, math.Float64bits(s[7]))
	}
	lanes := [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for i := n; i < len(pix); i++ {
		lanes[i-n] = fnvMix(lanes[i-n], math.Float64bits(pix[i]))
	}
	h := fnvMix(uint64(fnvOffset64), 1) // domain tag: by-pixels
	h = fnvMix(h, uint64(im.W))
	h = fnvMix(h, uint64(im.H))
	h = fnvMix(h, uint64(im.C))
	for _, v := range lanes {
		h = fnvMix(h, v)
	}
	return h
}

// hashQueryID fingerprints a QueryByID query by its image id.
func hashQueryID(id string) uint64 {
	h := fnvMix(uint64(fnvOffset64), 2) // domain tag: by-id
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return h
}

// versionKey is the stamp of an answer computed by this front: the pinned
// version of a one-shard front, or a hash of the version vector on more
// shards.
func (f queryFront) versionKey() uint64 {
	if !f.fleet() {
		return f.snaps[0].core.version
	}
	h := fnvMix(uint64(fnvOffset64), uint64(len(f.snaps)))
	for _, sn := range f.snaps {
		h = fnvMix(h, sn.core.version)
	}
	return h
}

// cacheEntry is one cached query. Its fields are written only under the
// cache's lock, and each is replaced whole, never changed in place: the
// matches slice is private to the cache — stored and served as copies —
// and the stored query is read-only once built, so a lookup may hand
// both out and use them after the lock is released.
type cacheEntry struct {
	key cacheKey
	// query is the stored query of a pixels or scene query; nil for an
	// id query, which is re-resolved against its pinned version.
	query *storedQuery
	// stamp is the versionKey the answer was computed at.
	stamp   uint64
	matches []Match
	stats   QueryStats
}

// queryCache is a mutex-guarded LRU over cacheKey. Lookups are a map
// operation, a list splice and a copy of the entry; the lock is held for
// no longer than that, never across a query.
type queryCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

func newQueryCache(max int) *queryCache {
	return &queryCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element, max)}
}

// get returns a copy of the entry for key, refreshing its recency.
func (c *queryCache) get(key cacheKey) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

// put stores e under e.key, replacing the stored query, the answer and
// the stamp of an entry already there, evicting from the cold end past
// capacity, and reports how many entries were evicted.
func (c *queryCache) put(e cacheEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		c.ll.MoveToFront(el)
		*el.Value.(*cacheEntry) = e
		return 0
	}
	c.items[e.key] = c.ll.PushFront(&e)
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// len reports the current entry count.
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheLookup is one lookup in the result cache: the key and the stamp
// it looked for, the entry it found (the zero entry on none), when it
// started and how long it took.
type cacheLookup struct {
	key   cacheKey
	stamp uint64
	entry cacheEntry
	start time.Time
	ns    int64
}

// lookup looks a resolved query up in c and reports whether the entry
// holds an answer at the front's pinned version. A pixels query is found
// by its fingerprint, an id query by its id.
func (f queryFront) lookup(c *queryCache, src querySource, p QueryParams) (cacheLookup, bool) {
	lk := cacheLookup{start: statsClock()}
	if src.im != nil {
		lk.key.query = hashQueryImage(src.im)
	} else {
		lk.key.query = hashQueryID(src.id)
	}
	lk.key.params = canonicalParams(p)
	lk.stamp = f.versionKey()
	e, ok := c.get(lk.key)
	lk.entry, lk.ns = e, statsSince(lk.start).Nanoseconds()
	return lk, ok && e.stamp == lk.stamp
}

// serveHit answers from a lookup that hit: a copy of the cached matches
// and the cached stats, re-stamped with the lookup time and a "hit"
// marker. An EXPLAIN context gets the cache row alone.
func (f queryFront) serveHit(ctx context.Context, lk cacheLookup, p QueryParams) ([]Match, QueryStats, error) {
	out := make([]Match, len(lk.entry.matches))
	copy(out, lk.entry.matches)
	stats := lk.entry.stats
	stats.Elapsed = statsSince(lk.start)
	stats.Cache = "hit"
	if f.qm != nil {
		f.qm.cacheHits.Inc()
	}
	if qt := queryTraceFrom(ctx); qt != nil {
		qt.fillCacheHit(p, f.fleet(), stats, len(out), stats.Elapsed.Nanoseconds())
	}
	return out, stats, nil
}

// remember stores the answer a missed lookup went on to compute: a
// private copy of the matches, the stats, the stamp looked for and sq,
// the stored query to keep (nil for an id query). An EXPLAIN context gets
// the cache row in front of the pipeline's.
func (f queryFront) remember(ctx context.Context, c *queryCache, lk cacheLookup, sq *storedQuery, matches []Match, stats QueryStats) {
	stored := make([]Match, len(matches))
	copy(stored, matches)
	evicted := c.put(cacheEntry{key: lk.key, query: sq, stamp: lk.stamp, matches: stored, stats: stats})
	if m := f.qm; m != nil {
		m.cacheMisses.Inc()
		if evicted > 0 {
			m.cacheEvictions.Add(uint64(evicted))
		}
		m.cacheEntries.Set(int64(c.len()))
	}
	if qt := queryTraceFrom(ctx); qt != nil {
		qt.noteCacheMiss(lk.ns)
	}
}
