// Package cache is DeepEye's stdlib-only serving cache: a sharded,
// byte-budgeted LRU keyed by table content fingerprints, with
// singleflight-style request coalescing so N concurrent identical
// requests trigger exactly one computation.
//
// The selection pipeline is deterministic over immutable tables — the
// same content, options, and k always produce the same top-k — so the
// hot path of the "millions of users" serving story (dashboards
// re-requesting the same dataset) is memoizable end to end. The cache
// stores three kinds of entries, all keyed through the table
// fingerprint (dataset.Table.Fingerprint): final TopK/Search/Ask/Query
// answers, ranked candidate sets (so a different k, or a keyword
// search, reuses the dominance graph), and per-column derived
// statistics (see prime.go).
//
// The byte budget is hard-partitioned across 16 shards, so a single
// entry can be at most MaxBytes/16; anything larger is simply not
// cached and recomputed per request. Size MaxBytes with the largest
// ranked candidate set in mind (the server default of 256 MiB admits
// entries up to 16 MiB).
//
// Hit/miss/eviction/coalesced counters and entry/byte gauges are
// exported on the obs registry (and thus GET /metrics) under
// deepeye_cache_* with a cache="<name>" label.
package cache

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"strings"
	"sync"

	"github.com/deepeye/deepeye/internal/obs"
)

// numShards is the fixed shard count: enough to keep mutex contention
// negligible at serving concurrency while keeping the structure flat.
const numShards = 16

// Metric names exported on the obs registry, labeled cache="<name>".
const (
	metricHits      = "deepeye_cache_hits_total"
	metricMisses    = "deepeye_cache_misses_total"
	metricEvictions = "deepeye_cache_evictions_total"
	metricCoalesced = "deepeye_cache_coalesced_total"
	metricInvalid   = "deepeye_cache_invalidations_total"
	metricEntries   = "deepeye_cache_entries"
	metricBytes     = "deepeye_cache_bytes"
)

// Config configures a Cache.
type Config struct {
	// Name labels the cache's metrics (cache="<name>").
	Name string
	// MaxBytes is the total byte budget across all shards; at least
	// numShards bytes. The per-entry size is caller-estimated.
	MaxBytes int64
	// Registry receives the cache's metrics; nil uses obs.Default.
	Registry *obs.Registry
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Evictions, Coalesced uint64
	Entries                            int
	Bytes                              int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// flight is one in-progress computation that concurrent identical
// requests coalesce onto.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

type shard struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int64
	maxBytes int64
	flights  map[string]*flight
}

// Cache is a sharded LRU with request coalescing. Safe for concurrent
// use. Values are shared between callers — treat them as immutable.
type Cache struct {
	shards [numShards]*shard

	hits, misses, evictions, coalesced, invalidations *obs.Counter
	entries, bytes                                    *obs.Gauge
}

// New builds a cache with cfg.MaxBytes split evenly across the shards.
func New(cfg Config) *Cache {
	if cfg.MaxBytes < numShards {
		cfg.MaxBytes = numShards
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	c := &Cache{
		hits:      reg.Counter(metricHits, "Cache hits.", "cache", cfg.Name),
		misses:    reg.Counter(metricMisses, "Cache misses.", "cache", cfg.Name),
		evictions: reg.Counter(metricEvictions, "Cache evictions under byte pressure.", "cache", cfg.Name),
		coalesced: reg.Counter(metricCoalesced, "Requests coalesced onto an in-flight computation.", "cache", cfg.Name),
		invalidations: reg.Counter(metricInvalid,
			"Entries dropped by targeted invalidation (retired dataset fingerprints).", "cache", cfg.Name),
		entries: reg.Gauge(metricEntries, "Live cache entries.", "cache", cfg.Name),
		bytes:   reg.Gauge(metricBytes, "Estimated bytes held by the cache.", "cache", cfg.Name),
	}
	per := cfg.MaxBytes / numShards
	for i := range c.shards {
		c.shards[i] = &shard{
			ll:       list.New(),
			items:    make(map[string]*list.Element),
			maxBytes: per,
			flights:  make(map[string]*flight),
		}
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%numShards]
}

// Get returns the cached value for key and whether it was present,
// promoting the entry to most recently used.
func (c *Cache) Get(key string) (any, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	sh.ll.MoveToFront(el)
	v := el.Value.(*entry).val
	sh.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Put inserts (or replaces) key with a caller-estimated size, evicting
// least recently used entries past the shard's byte budget. Entries
// larger than a whole shard are not cached.
func (c *Cache) Put(key string, val any, size int64) {
	if size < 1 {
		size = 1
	}
	sh := c.shardOf(key)
	if size > sh.maxBytes {
		return
	}
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry)
		sh.bytes += size - e.size
		e.val, e.size = val, size
		sh.ll.MoveToFront(el)
	} else {
		sh.items[key] = sh.ll.PushFront(&entry{key: key, val: val, size: size})
		sh.bytes += size
		c.entries.Inc()
	}
	var evicted int
	for sh.bytes > sh.maxBytes && sh.ll.Len() > 0 {
		back := sh.ll.Back()
		e := back.Value.(*entry)
		sh.ll.Remove(back)
		delete(sh.items, e.key)
		sh.bytes -= e.size
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		for i := 0; i < evicted; i++ {
			c.entries.Dec()
		}
	}
	c.syncBytesGauge()
}

// Remove drops key if present.
func (c *Cache) Remove(key string) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if ok {
		e := el.Value.(*entry)
		sh.ll.Remove(el)
		delete(sh.items, key)
		sh.bytes -= e.size
	}
	sh.mu.Unlock()
	if ok {
		c.entries.Dec()
		c.syncBytesGauge()
	}
}

// RemoveFunc drops every entry whose key matches, returning how many
// were dropped. It scans all shards under their locks — O(entries) —
// which is the point: a targeted invalidation (one dataset's retired
// fingerprint) reclaims exactly that dataset's entries and leaves the
// rest of the working set warm, where Purge would cold-start every
// dataset the server is holding.
func (c *Cache) RemoveFunc(match func(key string) bool) int {
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		var next *list.Element
		for el := sh.ll.Front(); el != nil; el = next {
			next = el.Next()
			e := el.Value.(*entry)
			if !match(e.key) {
				continue
			}
			sh.ll.Remove(el)
			delete(sh.items, e.key)
			sh.bytes -= e.size
			removed++
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		c.invalidations.Add(removed)
		for i := 0; i < removed; i++ {
			c.entries.Dec()
		}
		c.syncBytesGauge()
	}
	return removed
}

// RemoveFingerprint drops every entry keyed under the given table
// content fingerprint — the topk|, search|, ask|, rank|, query|, and
// col| families all embed the fingerprint as the key's second
// |-separated field.
// Called when a live dataset appends rows (the old fingerprint will
// never be requested again by that dataset) or is deleted/evicted.
// Content-addressed entries are never wrong, so this is purely a
// byte-budget reclaim: if a second registered dataset happens to hold
// identical content, its next request recomputes and re-caches.
func (c *Cache) RemoveFingerprint(fp string) int {
	if fp == "" {
		return 0
	}
	return c.RemoveFunc(func(key string) bool {
		i := strings.IndexByte(key, '|')
		if i < 0 {
			return false
		}
		rest := key[i+1:]
		if j := strings.IndexByte(rest, '|'); j >= 0 {
			rest = rest[:j]
		}
		return rest == fp
	})
}

// Purge drops every entry (in-flight computations are unaffected).
func (c *Cache) Purge() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		n := sh.ll.Len()
		sh.ll.Init()
		sh.items = make(map[string]*list.Element)
		sh.bytes = 0
		sh.mu.Unlock()
		for i := 0; i < n; i++ {
			c.entries.Dec()
		}
	}
	c.syncBytesGauge()
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the estimated bytes held.
func (c *Cache) Bytes() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// CacheStats snapshots the counters and occupancy.
func (c *Cache) CacheStats() Stats {
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Coalesced: c.coalesced.Value(),
		Entries:   c.Len(),
		Bytes:     c.Bytes(),
	}
}

// syncBytesGauge refreshes the bytes gauge from the shard totals; it
// runs outside the shard locks, so the gauge is eventually consistent
// under concurrent writes (the counters, not the gauge, are exact).
func (c *Cache) syncBytesGauge() { c.bytes.Set(c.Bytes()) }

// errFlightPanicked marks a computation that panicked; waiters see it
// instead of a spurious nil result.
var errFlightPanicked = errors.New("cache: coalesced computation panicked")

// Do returns the cached value for key, coalescing concurrent misses:
// the first caller (the leader) runs compute under its own ctx; every
// concurrent caller with the same key waits for that one computation
// instead of starting its own. Successful results are cached with the
// size compute reports; errors are not cached.
//
// hit reports whether the value came from the cache or a coalesced
// computation rather than this caller's own compute. A waiter whose own
// ctx expires returns ctx.Err() immediately without abandoning the
// leader; if the leader fails with a context error (its request was
// cancelled), waiters whose contexts are still live retry — one of them
// becomes the new leader — so one cancelled request can never poison
// its coalesced followers.
func (c *Cache) Do(ctx context.Context, key string, compute func(context.Context) (val any, size int64, err error)) (val any, hit bool, err error) {
	sh := c.shardOf(key)
	for {
		sh.mu.Lock()
		if el, ok := sh.items[key]; ok {
			sh.ll.MoveToFront(el)
			v := el.Value.(*entry).val
			sh.mu.Unlock()
			c.hits.Inc()
			return v, true, nil
		}
		if f, ok := sh.flights[key]; ok {
			sh.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			case <-f.done:
			}
			if f.err == nil {
				return f.val, true, nil
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				if cerr := ctx.Err(); cerr != nil {
					return nil, false, cerr
				}
				continue // leader's request died, ours is live: retry
			}
			return nil, false, f.err
		}
		f := &flight{done: make(chan struct{}), err: errFlightPanicked}
		sh.flights[key] = f
		sh.mu.Unlock()
		c.misses.Inc()

		var size int64
		func() {
			defer func() {
				sh.mu.Lock()
				delete(sh.flights, key)
				sh.mu.Unlock()
				close(f.done)
			}()
			f.val, size, f.err = compute(ctx)
		}()
		if f.err == nil {
			c.Put(key, f.val, size)
		}
		return f.val, false, f.err
	}
}
