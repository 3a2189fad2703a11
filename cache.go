package walrus

import (
	"container/list"
	"context"
	"math"
	"sync"

	"walrus/internal/imgio"
)

// The version-keyed query result cache. A repeated query against an
// unchanged database re-extracts, re-probes and re-scores for an answer
// that cannot differ; the cache short-circuits that by keying each
// result on (pinned version(s), query fingerprint, resolved parameters).
// The versions in the key make invalidation structural: a committed
// write publishes a new version, every subsequent lookup misses, and the
// superseded entries age out by LRU — there is no invalidation hook to
// get wrong. The query front keys it on the pinned version of a
// one-shard database and on a hash of the version vector on more
// shards. A scene query reaches it already resolved to its crop, so it shares its
// entry with a pixels query of the same crop scored by the query-only
// denominator.

// cacheKey identifies one cacheable query result. QueryParams is
// comparable, so the key works directly as a map key; canonicalParams
// zeroes the fields that cannot affect results.
type cacheKey struct {
	versions uint64
	query    uint64
	params   QueryParams
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

// hashQueryImage fingerprints a query image — dimensions and every pixel
// — with FNV-1a. Hashing is a single pass over the pixels, far cheaper
// than the wavelet decomposition a miss pays.
func hashQueryImage(im *imgio.Image) uint64 {
	h := fnvMix(uint64(fnvOffset64), 1) // domain tag: by-pixels
	h = fnvMix(h, uint64(im.W))
	h = fnvMix(h, uint64(im.H))
	h = fnvMix(h, uint64(im.C))
	for _, v := range im.Pix {
		h = fnvMix(h, math.Float64bits(v))
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

// versionKey is the key's version slot: the pinned version of a
// one-shard front, or a hash of the version vector on more shards.
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

// cacheEntry is one cached result. The matches slice is private to the
// cache — stored and served as copies — so callers may reorder or
// truncate what they receive.
type cacheEntry struct {
	key     cacheKey
	matches []Match
	stats   QueryStats
}

// queryCache is a mutex-guarded LRU over cacheKey. Lookups are two map
// operations and a list splice; the lock is held for no longer than
// that, never across a query.
type queryCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

func newQueryCache(max int) *queryCache {
	return &queryCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element, max)}
}

// get returns the cached result for key, refreshing its recency.
func (c *queryCache) get(key cacheKey) ([]Match, QueryStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, QueryStats{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.matches, e.stats, true
}

// put stores a result, evicting from the cold end past capacity, and
// reports how many entries were evicted.
func (c *queryCache) put(key cacheKey, matches []Match, stats QueryStats) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.matches, e.stats = matches, stats
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, matches: matches, stats: stats})
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

// cachedQuery wraps the pipeline for a resolved query (see
// queryFront.query) in the protocol of the result cache c: bypass on NoCache, serve a
// copy on hit (with the cached stats, re-stamped with the lookup time and
// a "hit" marker), otherwise run the query and store a private copy of
// the result. An EXPLAIN context gets the cache outcome as a first-class
// funnel row.
func (f queryFront) cachedQuery(ctx context.Context, c *queryCache, src querySource, sq *storedQuery, p QueryParams) ([]Match, QueryStats, error) {
	if p.NoCache {
		matches, stats, err := f.run(ctx, src.im, sq, p)
		if err == nil {
			stats.Cache = "bypass"
		}
		return matches, stats, err
	}
	var qhash uint64
	if sq != nil {
		qhash = hashQueryID(src.id)
	} else {
		qhash = hashQueryImage(src.im)
	}
	start := statsClock()
	key := cacheKey{versions: f.versionKey(), query: qhash, params: canonicalParams(p)}
	m := f.qm
	if cached, stats, ok := c.get(key); ok {
		out := make([]Match, len(cached))
		copy(out, cached)
		stats.Elapsed = statsSince(start)
		stats.Cache = "hit"
		if m != nil {
			m.cacheHits.Inc()
		}
		if qt := queryTraceFrom(ctx); qt != nil {
			qt.fillCacheHit(p, f.fleet(), stats, len(out), stats.Elapsed.Nanoseconds())
		}
		return out, stats, nil
	}
	lookupNS := statsSince(start).Nanoseconds()
	matches, stats, err := f.run(ctx, src.im, sq, p)
	if err != nil {
		return matches, stats, err
	}
	stats.Cache = "miss"
	stored := make([]Match, len(matches))
	copy(stored, matches)
	evicted := c.put(key, stored, stats)
	if m != nil {
		m.cacheMisses.Inc()
		if evicted > 0 {
			m.cacheEvictions.Add(uint64(evicted))
		}
		m.cacheEntries.Set(int64(c.len()))
	}
	if qt := queryTraceFrom(ctx); qt != nil {
		qt.noteCacheMiss(lookupNS)
	}
	return matches, stats, nil
}
