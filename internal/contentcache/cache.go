package contentcache

import (
	"sync"
	"sync/atomic"
)

// Kind namespaces cache entries so one cache instance can hold several
// derived-artifact types (raw-document symbols, unpack results, winnow
// fingerprints) without key collisions.
type Kind uint8

// Key addresses one cache entry: the artifact kind plus the digest and
// length of the content the artifact was derived from.
type Key struct {
	Kind   Kind
	Digest uint64
	Len    int
}

// KeyOf builds the cache key for (kind, content).
func KeyOf(kind Kind, content string) Key {
	return Key{Kind: kind, Digest: Digest(content), Len: len(content)}
}

const shardCount = 16

type entry struct {
	content string // verification copy: hits must match exactly
	value   any
	cost    int // accounted bytes: content plus the caller's value estimate
}

type shard struct {
	mu    sync.Mutex
	m     map[Key]entry
	order []Key // FIFO eviction order
	bytes int
	// inflight holds one channel per key a GetOrCompute is working on,
	// closed when that call finishes.
	inflight map[Key]chan struct{}
}

// Cache is a bounded, sharded, verified content-addressed store. A nil
// *Cache is valid and behaves as an always-miss cache, so call sites can
// thread an optional cache without branching.
type Cache struct {
	shards       [shardCount]shard
	maxShardSize int
	hits, misses atomic.Int64
}

// New builds a cache bounded by roughly maxBytes of accounted memory:
// each entry is charged its verification content plus the value-size
// estimate the caller passes to PutSized (Put charges content only, for
// values that are small relative to their content). maxBytes <= 0 selects
// the 64 MiB default — one provider-scale day of unique content at the
// paper's document sizes.
func New(maxBytes int) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &Cache{maxShardSize: maxBytes / shardCount}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]entry)
	}
	return c
}

// MaxBytes reports the cache's approximate byte budget (the value New was
// built with, rounded down to a multiple of the shard count).
func (c *Cache) MaxBytes() int {
	if c == nil {
		return 0
	}
	return c.maxShardSize * shardCount
}

func (c *Cache) shard(k Key) *shard {
	return &c.shards[(k.Digest^uint64(k.Kind))%shardCount]
}

// Get returns the value cached for (key, content). The stored content is
// compared against the probe: a digest collision reads as a miss.
func (c *Cache) Get(key Key, content string) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok || e.content != content {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.value, true
}

// GetOrCompute is a single-flighted read-modify-write of one entry. fill
// receives the value cached for (key, content) — (nil, false) on a miss —
// and returns the value to hand back, its retained-size estimate (as for
// PutSized), and whether to store it. Calls for one key run one at a
// time: when several goroutines miss the same key, the first computes and
// stores it and the others then read that value as a hit, so the work is
// done — and the miss counted — once, however the calls were scheduled.
// fill may call GetOrCompute for other keys, never for its own.
func (c *Cache) GetOrCompute(key Key, content string, fill func(cached any, hit bool) (value any, valueBytes int, store bool)) any {
	if c == nil {
		value, _, _ := fill(nil, false)
		return value
	}
	s := c.shard(key)
	done := make(chan struct{})
	for {
		s.mu.Lock()
		busy, ok := s.inflight[key]
		if !ok {
			if s.inflight == nil {
				s.inflight = make(map[Key]chan struct{})
			}
			s.inflight[key] = done
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		<-busy
	}
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(done)
	}()
	cached, hit := c.Get(key, content)
	value, valueBytes, store := fill(cached, hit)
	if store {
		c.PutSized(key, content, value, valueBytes)
	}
	return value
}

// Put stores value for (key, content), charging only the content against
// the byte budget — use it when the value is small relative to its
// content (symbol sequences, histograms, small structs).
func (c *Cache) Put(key Key, content string, value any) {
	c.PutSized(key, content, value, 0)
}

// PutSized stores value for (key, content), charging content plus
// valueBytes (the caller's estimate of the value's retained size) against
// the byte budget and evicting oldest entries in the shard when over it.
// Values that dwarf their key content — token streams addressed by a
// short digest string, for instance — must pass an estimate, or the cache
// would hold far more memory than its budget admits. Re-putting an
// existing key replaces its value and re-accounts its cost.
func (c *Cache) PutSized(key Key, content string, value any, valueBytes int) {
	if c == nil {
		return
	}
	cost := len(content) + valueBytes
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[key]; ok {
		s.bytes += cost - old.cost
		s.m[key] = entry{content: content, value: value, cost: cost}
		return
	}
	for s.bytes+cost > c.maxShardSize && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if old, ok := s.m[oldest]; ok {
			s.bytes -= old.cost
			delete(s.m, oldest)
		}
	}
	s.m[key] = entry{content: content, value: value, cost: cost}
	s.order = append(s.order, key)
	s.bytes += cost
}

// Stats is a point-in-time cache accounting snapshot.
type Stats struct {
	Hits, Misses int64
	Entries      int
	Bytes        int
}

// HitRate is hits / lookups, 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the hit/miss counters (entries stay), so per-run hit
// rates can be measured against a warm cache.
func (c *Cache) ResetStats() {
	if c == nil {
		return
	}
	c.hits.Store(0)
	c.misses.Store(0)
}
