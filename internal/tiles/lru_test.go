package tiles

import (
	"slices"
	"testing"
)

// TestLRUByteBound: the memory level prices a tile at its PNG bytes plus
// lruOverhead, evicts the least recently used tiles past its bound, and
// still admits a tile larger than the whole bound, alone.
func TestLRUByteBound(t *testing.T) {
	m := testMetrics()
	c := NewLRU(2*(100+lruOverhead), m)
	tile := func(n int) *Tile { return &Tile{PNG: make([]byte, n)} }
	for _, key := range []string{"a", "b", "c"} {
		c.Add(key, tile(100))
	}
	if got := c.Keys(); !slices.Equal(got, []string{"c", "b"}) {
		t.Fatalf("resident %v, want [c b]", got)
	}
	if n, b := m.MemEntries.Value(), m.MemBytes.Value(); n != 2 || b != 2*(100+lruOverhead) {
		t.Fatalf("gauges %d tiles, %d bytes; want 2, %d", n, b, 2*(100+lruOverhead))
	}
	c.Add("big", tile(1000))
	if _, ok := c.Get("big"); !ok || c.Len() != 1 {
		t.Fatalf("resident %v after a tile larger than the bound, want [big]", c.Keys())
	}
	if b := m.MemBytes.Value(); b != 1000+lruOverhead {
		t.Fatalf("gauge %d bytes, want %d", b, 1000+lruOverhead)
	}
}
