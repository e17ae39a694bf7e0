// Package lru is the serving layer's one cache: a least-recently-used map
// bounded by the total cost of its entries, in which concurrent misses on a
// key share one load that outlives the callers waiting on it. The server
// keeps its built KDVs, its tile pyramids and its encoded tiles in it.
package lru

import (
	"container/list"
	"context"
	"sync"

	"github.com/quadkdv/quad/internal/telemetry"
)

// Outcome says how Do answered: the label of the server's cache span, its
// slow-query log line and, mapped onto cache levels, X-KDV-Tile-Source.
type Outcome string

const (
	Hit       Outcome = "hit"       // the key was resident
	Miss      Outcome = "miss"      // this call started the load
	Coalesced Outcome = "coalesced" // this call waited on another call's load
)

// Cache is a least-recently-used cache bounded by the total cost of its
// entries. Build one with New; it is safe for concurrent use.
type Cache[K comparable, V any] struct {
	// Entries and Cost, when set, track the resident entry count and their
	// total cost; Evictions counts the entries evicted to keep the bound.
	// Set them before the cache is shared.
	Entries, Cost *telemetry.Gauge
	Evictions     *telemetry.Counter

	mu      sync.Mutex
	max     int64
	size    int64
	cost    func(V) int64
	ll      *list.List // most recently used at the front; values are *entry[K, V]
	items   map[K]*list.Element
	loading map[K]*inflight[V]
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// inflight is one running load; done is closed once val and err are final.
type inflight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache that keeps entries while their total cost is at most
// max. cost prices a value; nil prices every value at 1, so max counts
// entries. An entry that alone costs more than max is still admitted, alone:
// the bound is a target, not a correctness line.
func New[K comparable, V any](max int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		max:     max,
		cost:    cost,
		ll:      list.New(),
		items:   make(map[K]*list.Element),
		loading: make(map[K]*inflight[V]),
	}
}

// Get returns the value resident at key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add makes v the most recently used value at key.
func (c *Cache[K, V]) Add(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, v)
}

// Do returns the value at key, loading it with load on a miss. Residency and
// in-flight loads are checked under one lock, so the concurrent misses on a
// key share one load. The load runs on its own goroutine: a caller whose ctx
// ends stops waiting and gets ctx's error, while the load runs on, so the
// callers coalesced onto it, and the cache, still get its value. Only
// successes are cached; the next call after a failed load loads again.
func (c *Cache[K, V]) Do(ctx context.Context, key K, load func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	outcome := Coalesced
	call, ok := c.loading[key]
	if !ok {
		outcome = Miss
		call = c.start(key, load)
	}
	c.mu.Unlock()
	select {
	case <-call.done:
		return call.val, outcome, call.err
	case <-ctx.Done():
		var zero V
		return zero, outcome, ctx.Err()
	}
}

// start registers key's load and runs it on its own goroutine. c.mu is held.
func (c *Cache[K, V]) start(key K, load func() (V, error)) *inflight[V] {
	call := &inflight[V]{done: make(chan struct{})}
	c.loading[key] = call
	go func() {
		v, err := load()
		c.mu.Lock()
		delete(c.loading, key)
		if err == nil {
			c.addLocked(key, v)
		}
		call.val, call.err = v, err
		c.mu.Unlock()
		close(call.done)
	}()
	return call
}

func (c *Cache[K, V]) addLocked(key K, v V) {
	cost := int64(1)
	if c.cost != nil {
		cost = c.cost(v)
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.size += cost - e.cost
		e.val, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v, cost: cost})
		c.size += cost
	}
	for c.size > c.max && c.ll.Len() > 1 {
		e := c.ll.Remove(c.ll.Back()).(*entry[K, V])
		delete(c.items, e.key)
		c.size -= e.cost
		c.Evictions.Inc()
	}
	c.Entries.Set(int64(c.ll.Len()))
	c.Cost.Set(c.size)
}

// Len returns the number of resident entries; loads in flight do not count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the resident keys, most recently used first.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}
