package lru

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/quadkdv/quad/internal/telemetry"
)

func bytesCost(b []byte) int64 { return int64(len(b)) }

// TestCostBound: the cache evicts from the least recently used end until
// the total cost fits, and an entry costlier than the whole bound is still
// admitted, alone.
func TestCostBound(t *testing.T) {
	c := New[string](100, bytesCost)
	c.Entries, c.Cost, c.Evictions = new(telemetry.Gauge), new(telemetry.Gauge), new(telemetry.Counter)
	seen := func(entries, cost int64, evictions uint64) {
		t.Helper()
		if c.Entries.Value() != entries || c.Cost.Value() != cost || c.Evictions.Value() != evictions {
			t.Fatalf("recorded %d entries, cost %d, %d evictions; want %d, %d, %d",
				c.Entries.Value(), c.Cost.Value(), c.Evictions.Value(), entries, cost, evictions)
		}
	}

	c.Add("a", make([]byte, 40))
	c.Add("b", make([]byte, 40))
	if _, ok := c.Get("a"); !ok { // a is now the most recently used
		t.Fatal("a evicted under the bound")
	}
	c.Add("c", make([]byte, 40)) // 120 > 100: b, the least recently used, goes
	if got := c.Keys(); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("keys %v, want [c a]", got)
	}
	seen(2, 80, 1)

	c.Add("a", make([]byte, 10)) // refreshing a key reprices it
	seen(2, 50, 1)

	c.Add("huge", make([]byte, 1000))
	if got := c.Keys(); !slices.Equal(got, []string{"huge"}) {
		t.Fatalf("keys %v after an oversized entry, want [huge]", got)
	}
	if v, ok := c.Get("huge"); !ok || len(v) != 1000 {
		t.Fatal("an entry larger than the bound was not admitted")
	}
	seen(1, 1000, 3)
}

// TestDoOutcomes: a miss loads, a second call hits, and a failed load is
// reported but not cached.
func TestDoOutcomes(t *testing.T) {
	c := New[string, int](4, nil)
	ctx := context.Background()
	if v, o, err := c.Do(ctx, "k", func() (int, error) { return 7, nil }); v != 7 || o != Miss || err != nil {
		t.Fatalf("first Do = %d, %s, %v; want 7, miss, nil", v, o, err)
	}
	if v, o, err := c.Do(ctx, "k", func() (int, error) { return 0, errors.New("reloaded") }); v != 7 || o != Hit || err != nil {
		t.Fatalf("second Do = %d, %s, %v; want 7, hit, nil", v, o, err)
	}
	boom := errors.New("boom")
	if _, o, err := c.Do(ctx, "bad", func() (int, error) { return 1, boom }); o != Miss || !errors.Is(err, boom) {
		t.Fatalf("failed Do = %s, %v; want miss, boom", o, err)
	}
	if _, ok := c.Get("bad"); ok || c.Len() != 1 {
		t.Fatalf("failed load cached: %v, %d entries", c.Keys(), c.Len())
	}
}

// TestConcurrentDoGet hammers one key with Do, Get and Add from many
// goroutines; under -race it checks that residency, the in-flight map and
// the loaded value are only touched under the lock. Every Do sees the one
// value, and the load runs once.
func TestConcurrentDoGet(t *testing.T) {
	for round := 0; round < 20; round++ {
		c := New[string, *int](2, nil)
		var loads atomic.Int32
		want := new(int)
		load := func() (*int, error) {
			loads.Add(1)
			return want, nil
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					switch (g + i) % 3 {
					case 0, 1:
						v, _, err := c.Do(context.Background(), "k", load)
						if err != nil || v != want {
							t.Errorf("Do = %p, %v; want the loaded value", v, err)
						}
					default:
						if v, ok := c.Get("k"); ok && v != want {
							t.Error("Get returned another value")
						}
						c.Add("other", new(int))
						_ = c.Keys()
					}
				}
			}(g)
		}
		wg.Wait()
		if n := loads.Load(); n != 1 {
			t.Fatalf("round %d: %d loads of one key, want 1", round, n)
		}
	}
}
