package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// resultCache is a bounded LRU of finished job results, encoded, keyed by
// the content hash of the (document, metadata, solver) triple. Identical
// submissions — the common case for a fleet re-acquiring the same
// published documents — are served without re-running the pipeline or
// encoding the result again.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	items map[[sha256.Size]byte]*list.Element
}

type cacheEntry struct {
	key [sha256.Size]byte
	res runResult
}

// newResultCache creates a cache holding at most capacity entries
// (capacity must be positive).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[[sha256.Size]byte]*list.Element, capacity),
	}
}

// cacheKey hashes the inputs that determine a job's result. Each field is
// length-prefixed so distinct triples can never collide by concatenation
// (e.g. metadata "a" + document "bc" vs metadata "ab" + document "c").
// TimeoutMS is deliberately excluded: it bounds the computation but does
// not change a successful result.
func cacheKey(spec JobSpec) [sha256.Size]byte {
	h := sha256.New()
	var lenBuf [8]byte
	field := func(s string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	field(spec.Solver)
	field(spec.Scenario)
	field(spec.Metadata)
	field(spec.Document)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// get returns the cached result for key, refreshing its recency.
func (c *resultCache) get(key [sha256.Size]byte) (runResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return runResult{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts or refreshes a result, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) put(key [sha256.Size]byte, res runResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	//dartvet:allow ctxloop -- eviction removes one entry per iteration, bounded by c.cap
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cachingRunner wraps an encodedRunner with a bounded LRU over the
// (document, metadata, solver) triple: repeated submissions are answered
// from the cache, counted as hits in the metrics; only successful results
// are cached (failures stay retryable). A hit hands the job the cached
// bytes themselves, which nothing modifies: jobs only serve and persist
// them.
func cachingRunner(next encodedRunner, capacity int, m *Metrics) encodedRunner {
	cache := newResultCache(capacity)
	return func(ctx context.Context, spec JobSpec) (runResult, error) {
		key := cacheKey(spec)
		if res, ok := cache.get(key); ok {
			if m != nil {
				m.CacheHit()
			}
			return res, nil
		}
		if m != nil {
			m.CacheMiss()
		}
		res, err := next(ctx, spec)
		if err != nil {
			return runResult{}, err
		}
		cache.put(key, res)
		return res, nil
	}
}
