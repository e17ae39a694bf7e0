package tiles

import "github.com/quadkdv/quad/internal/lru"

// Tile is a finished, servable tile: the encoded PNG and its strong ETag
// (derived from the content hash, so it is stable across processes and
// restarts). Both cache levels traffic in Tiles — disk stores the PNG and
// recomputes the ETag on load, memory keeps both.
type Tile struct {
	PNG  []byte
	ETag string
}

// lruOverhead approximates the per-entry bookkeeping cost (list element,
// map entry, key, ETag) charged on top of the PNG bytes.
const lruOverhead = 160

// LRU is the memory level of the tile cache, keyed by tileset and
// coordinate and bounded by bytes. It is deliberately small: the disk store
// is the durable level, so eviction here costs one re-read, not one
// re-render. Its in-flight loads are the tile builds.
type LRU = lru.Cache[string, *Tile]

// NewLRU returns a tile cache bounded at maxBytes of PNG plus lruOverhead
// per tile. m may be nil.
func NewLRU(maxBytes int64, m *Metrics) *LRU {
	c := lru.New[string](maxBytes, func(t *Tile) int64 { return int64(len(t.PNG)) + lruOverhead })
	c.Entries, c.Cost = m.memEntries(), m.memBytes()
	return c
}
