package engine

import (
	"container/list"
	"sync"
)

// DefaultCacheSize is the total entry budget when Options.CacheSize is zero.
const DefaultCacheSize = 1024

// defaultCacheShards splits the cache into independently locked LRU shards
// so concurrent workers don't serialize on one mutex.
const defaultCacheShards = 16

// resultCache is a sharded LRU of finished job results keyed by the
// canonical spec hash.
type resultCache struct {
	shards []*cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recently used
	m   map[string]*list.Element // key -> *entry element
}

type cacheEntry struct {
	key string
	val JobResult
}

// newResultCache builds a cache holding about `size` entries in total.
func newResultCache(size, shards int) *resultCache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	if shards > size {
		shards = size
	}
	perShard := (size + shards - 1) / shards
	c := &resultCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap: perShard,
			ll:  list.New(),
			m:   make(map[string]*list.Element, perShard),
		}
	}
	return c
}

// shard picks the shard for a key. Keys are sha256 digests, so the first
// byte is uniformly distributed.
func (c *resultCache) shard(key string) *cacheShard {
	if key == "" {
		return c.shards[0]
	}
	return c.shards[int(key[0])%len(c.shards)]
}

// Get returns the cached result for key and marks it most recently used.
func (c *resultCache) Get(key string) (JobResult, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return JobResult{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores a result, evicting the least recently used entry of the
// shard when it is full.
func (c *resultCache) Put(key string, val JobResult) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the total entry count across shards.
func (c *resultCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
