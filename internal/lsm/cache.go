package lsm

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockCache is a byte-capacity-bounded LRU over SSTable data blocks,
// shared by every table of a state provider: hot blocks (recent keys,
// index-adjacent blocks) stay in memory while cold state pages from disk.
// Hit/miss counters feed the block-cache hit rate in QueryProgress.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	size     int64
	order    *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	// tables heads each open table's chain of resident blocks, so dropping a
	// table costs what it drops, not a walk of the whole cache.
	tables map[uint64]*cacheEntry

	hits     atomic.Int64
	misses   atomic.Int64
	tableIDs atomic.Uint64 // the last table number handed to openTable
}

// cacheKey names a block by the number its open Table drew from the cache —
// unique per open, so a file rewritten under the same path (a sequence number
// reused after a rollback) can never be served another table's blocks — and
// eight bytes to hash where the path was a string.
type cacheKey struct {
	table uint64
	block int // data-block index within the table
}

type cacheEntry struct {
	key  cacheKey
	data []byte
	// prev and next chain the resident blocks of one table.
	prev, next *cacheEntry
}

// CacheStats is a point-in-time view of a cache's effectiveness.
type CacheStats struct {
	Hits, Misses int64
	// Bytes is the resident block payload; Entries the block count.
	Bytes, Entries int64
}

// NewBlockCache creates a cache bounded to capBytes of block payload.
// capBytes <= 0 disables caching (every lookup misses).
func NewBlockCache(capBytes int64) *BlockCache {
	return &BlockCache{
		capacity: capBytes,
		order:    list.New(),
		items:    map[cacheKey]*list.Element{},
		tables:   map[uint64]*cacheEntry{},
	}
}

// Stats reports cumulative hit/miss counts and current residency.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Bytes:   c.size,
		Entries: int64(len(c.items)),
	}
}

// get returns the cached block, updating recency and counters.
func (c *BlockCache) get(k cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).data, true
	}
	c.misses.Add(1)
	return nil, false
}

// put inserts a block, evicting least-recently-used blocks to stay under
// capacity. Blocks larger than the whole cache are not retained.
func (c *BlockCache) put(k cacheKey, data []byte) {
	if c.capacity <= 0 || int64(len(data)) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.size += int64(len(data)) - int64(len(el.Value.(*cacheEntry).data))
		el.Value.(*cacheEntry).data = data
	} else {
		ent := &cacheEntry{key: k, data: data, next: c.tables[k.table]}
		if ent.next != nil {
			ent.next.prev = ent
		}
		c.tables[k.table] = ent
		c.items[k] = c.order.PushFront(ent)
		c.size += int64(len(data))
	}
	for c.size > c.capacity {
		el := c.order.Back()
		if el == nil {
			break
		}
		c.removeLocked(el)
	}
}

// removeLocked takes one block out of the LRU order, the key map and its
// table's chain.
func (c *BlockCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.size -= int64(len(ent.data))
	if ent.next != nil {
		ent.next.prev = ent.prev
	}
	switch {
	case ent.prev != nil:
		ent.prev.next = ent.next
	case ent.next != nil:
		c.tables[ent.key.table] = ent.next
	default:
		delete(c.tables, ent.key.table)
	}
}

// dropTable evicts every block of one table — called when a tree closes or
// a table becomes unreferenced, so a long-lived shared cache does not pin
// dead tables' blocks.
func (c *BlockCache) dropTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ent := c.tables[t.id]; ent != nil; ent = c.tables[t.id] {
		c.removeLocked(c.items[ent.key])
	}
}
