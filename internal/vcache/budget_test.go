//go:build !race

// Race instrumentation skews allocation accounting, so the memory
// budget and zero-alloc tests run only in normal builds.

package vcache

import (
	"runtime"
	"testing"
)

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestFullCacheHeapBudget(t *testing.T) {
	const maxPerEntry = 56
	before := heapAlloc()
	c := New(DefaultCapacity)
	for i := 0; i < DefaultCapacity; i++ {
		c.Add(key(i))
	}
	after := heapAlloc()
	if c.Len() != DefaultCapacity {
		t.Fatalf("Len=%d, want %d", c.Len(), DefaultCapacity)
	}
	runtime.KeepAlive(c)
	perEntry := float64(after-before) / DefaultCapacity
	t.Logf("%.1f B per entry", perEntry)
	if perEntry > maxPerEntry {
		t.Fatalf("full cache holds %.1f B per entry, budget %d", perEntry, maxPerEntry)
	}
}

func TestNewIsLazy(t *testing.T) {
	// An empty cache costs its shard headers only: a node whose
	// validator never admits a transaction pays almost nothing.
	const runs = 100
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	caches := make([]*Cache, runs)
	for i := range caches {
		caches[i] = New(DefaultCapacity)
	}
	runtime.ReadMemStats(&ms)
	perNew := (ms.TotalAlloc - before) / runs
	t.Logf("%d B per New", perNew)
	if perNew >= 4096 {
		t.Fatalf("New(DefaultCapacity) allocates %d B before the first Add", perNew)
	}
	runtime.KeepAlive(caches)
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	c := New(1 << 10)
	keys := make([]Key, 1<<12)
	for i := range keys {
		keys[i] = key(i)
		c.Add(keys[i])
	}
	next := 0
	if a := testing.AllocsPerRun(1000, func() {
		c.Add(keys[next%len(keys)]) // every shard is full: reuses a slot
		next++
	}); a != 0 {
		t.Fatalf("Add on a full shard: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		c.Contains(keys[next%len(keys)])
		next++
	}); a != 0 {
		t.Fatalf("Contains: %v allocs/op", a)
	}
}
