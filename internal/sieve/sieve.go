// Package sieve is the shared cache behind the serving tier: the per-shard
// result cache in internal/serve and the cluster front tier's L1 in
// internal/cluster. It evicts by SIEVE (Zhang et al., "SIEVE is Simpler
// than LRU", NSDI 2024): one queue with new entries at the head, a visited
// bit that a hit sets instead of moving the entry, and a hand that walks
// from the oldest entry toward the newest, clearing visited bits and
// evicting the first entry it finds unvisited. A key requested once leaves
// at the hand's next pass while a key hit since the last pass stays, so
// under the Zipf-skewed repeats the serving tier sees it keeps more of the
// popular head than LRU, and a hit costs a bit store rather than a list
// move. It is a plain mutex-guarded map plus that queue — no sharding, no
// TTLs — because every user keys it by a canonical SHA-256 digest and
// stores immutable results, so the only policy that matters is bounded
// memory with hot-entry retention.
package sieve

import (
	"container/list"
	"sync"
)

// Entry is one key/value pair, in the order EntriesOldestFirst reports.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
}

// node is a queued entry with its visited bit.
type node[K comparable, V any] struct {
	Entry[K, V]
	visited bool
}

// Cache is a fixed-capacity SIEVE map. The zero value is not usable; create
// with New. A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List    // front = newest, back = oldest
	hand  *list.Element // next entry the eviction hand examines; nil = the oldest
	items map[K]*list.Element
}

// New returns a cache holding at most max entries; max <= 0 yields a
// disabled cache whose Add is a no-op and Get always misses.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value cached under k and marks the entry visited; it
// never moves the entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	n := el.Value.(*node[K, V])
	n.visited = true
	return n.Value, true
}

// Add inserts k → v at the head of the queue, first evicting one entry
// when the cache is full. A key already present takes the new value and is
// marked visited where it stands.
func (c *Cache[K, V]) Add(k K, v V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		n := el.Value.(*node[K, V])
		n.Value, n.visited = v, true
		return
	}
	if c.ll.Len() >= c.max {
		c.evict()
	}
	c.items[k] = c.ll.PushFront(&node[K, V]{Entry: Entry[K, V]{Key: k, Value: v}})
}

// evict moves the hand toward the head, wrapping from the head back to the
// oldest entry, clearing each visited bit it passes, and removes the first
// unvisited entry. The hand stays on the entry after the victim. Callers
// hold c.mu on a non-empty cache.
func (c *Cache[K, V]) evict() {
	el := c.hand
	if el == nil {
		el = c.ll.Back()
	}
	for n := el.Value.(*node[K, V]); n.visited; n = el.Value.(*node[K, V]) {
		n.visited = false
		if el = el.Prev(); el == nil {
			el = c.ll.Back()
		}
	}
	c.hand = el.Prev()
	c.ll.Remove(el)
	delete(c.items, el.Value.(*node[K, V]).Key)
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// EntriesOldestFirst copies the cache in queue order, oldest → newest.
// Hits never reorder the queue, so this is insertion order among the
// survivors. Replaying the copy through Add into an empty cache of at
// least the same capacity rebuilds the same queue with every visited bit
// cleared — the order a snapshot is written in.
func (c *Cache[K, V]) EntriesOldestFirst() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*node[K, V]).Entry)
	}
	return out
}
