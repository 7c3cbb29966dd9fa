// Package lru is the one recency-ordered map behind every cache in the
// repository that evicts least recently used first: the feature store's
// entries, the dataset catalog's tables, the core sums memo, and the order in
// which a dataflow node spills cached partitions.
//
// Each entry carries a charge in units its owner chooses (bytes on disk,
// bytes in memory, one per entry). Once the charges exceed the budget, Add
// evicts from the least recently used end and hands each victim to the
// owner's callback; what eviction means — deleting a file, dropping a table —
// stays with the owner.
//
// A Cache takes no lock. Every owner already serializes its own state under a
// mutex and calls the cache only while holding it.
package lru

import "container/list"

// Cache is a recency-ordered map from K to V whose entries' charges are kept
// within a budget. Create one with New.
type Cache[K comparable, V any] struct {
	budget  int64
	used    int64
	order   *list.List // of *entry[K, V]; front = most recently used
	items   map[K]*list.Element
	evicted func(K, V, int64)
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	charge int64
}

// New returns an empty cache. A budget of 0 or less is unlimited: the cache
// then only keeps recency order, and Add never evicts. evicted, if non-nil,
// is called with each entry Add evicts and the charge it carried.
func New[K comparable, V any](budget int64, evicted func(K, V, int64)) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, order: list.New(), items: make(map[K]*list.Element), evicted: evicted}
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value under k without changing its recency.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k as the most recently used entry, charged charge (>= 0)
// against the budget. A value already under k is replaced without a call to
// evicted. Add then evicts least recently used entries, calling evicted for
// each, until the charges fit the budget; an entry charged more than the
// whole budget is evicted too, so owners refuse those before adding them.
func (c *Cache[K, V]) Add(k K, v V, charge int64) {
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry[K, V])
		c.used += charge - e.charge
		e.val, e.charge = v, charge
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v, charge: charge})
		c.used += charge
	}
	for c.budget > 0 && c.used > c.budget {
		e := c.remove(c.order.Back())
		if c.evicted != nil {
			c.evicted(e.key, e.val, e.charge)
		}
	}
}

// Remove deletes the entry under k without calling evicted and reports
// whether there was one.
func (c *Cache[K, V]) Remove(k K) bool {
	el, ok := c.items[k]
	if ok {
		c.remove(el)
	}
	return ok
}

func (c *Cache[K, V]) remove(el *list.Element) *entry[K, V] {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.used -= e.charge
	return e
}

// Oldest returns the least recently used entry without changing its recency;
// ok is false when the cache is empty.
func (c *Cache[K, V]) Oldest() (k K, v V, ok bool) {
	el := c.order.Back()
	if el == nil {
		return k, v, false
	}
	e := el.Value.(*entry[K, V])
	return e.key, e.val, true
}

// Each calls fn with every entry and its charge, most recently used first.
// fn must not modify the cache.
func (c *Cache[K, V]) Each(fn func(K, V, int64)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.val, e.charge)
	}
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Used reports the sum of the entries' charges.
func (c *Cache[K, V]) Used() int64 { return c.used }
