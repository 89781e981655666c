package vcache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// key derives a distinct test key; spreading i into the first byte
// exercises every shard.
func key(i int) Key {
	var k Key
	k[0] = byte(i)
	binary.LittleEndian.PutUint64(k[1:], uint64(i))
	return k
}

func TestAddContains(t *testing.T) {
	c := New(64)
	if c.Contains(key(1)) {
		t.Fatal("empty cache must miss")
	}
	c.Add(key(1))
	if !c.Contains(key(1)) {
		t.Fatal("added key must hit")
	}
	if c.Contains(key(2)) {
		t.Fatal("different key must miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDuplicateAdd(t *testing.T) {
	c := New(64)
	c.Add(key(1))
	c.Add(key(1))
	if c.Len() != 1 {
		t.Fatalf("Len=%d after duplicate add", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 16 = one slot per shard; a second key in any shard
	// evicts the least recently seen one.
	c := New(shardCount)
	a, b := key(0), key(0)
	b[1] ^= 1 // same shard as a (same first byte), different key
	c.Add(a)
	c.Add(b)
	if c.Contains(a) {
		t.Fatal("a must have been evicted")
	}
	if !c.Contains(b) {
		t.Fatal("b must remain")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions=%d", st.Evictions)
	}
}

func TestRecencyOrder(t *testing.T) {
	// Two slots in one shard: add a, b; touch a; adding c must evict b.
	c := New(2 * shardCount)
	a, b, d := key(0), key(0), key(0)
	b[1], d[1] = 1, 2
	c.Add(a)
	c.Add(b)
	c.Contains(a)
	c.Add(d)
	if !c.Contains(a) {
		t.Fatal("recently touched key must survive")
	}
	if c.Contains(b) {
		t.Fatal("least recently seen key must be evicted")
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < 1000; i++ {
		c.Add(key(i))
	}
	if c.Len() != 1000 {
		t.Fatalf("Len=%d", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("unexpected evictions at default capacity: %d", st.Evictions)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(g*500 + i)
				c.Add(k)
				c.Contains(k)
				c.Contains(key(i))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 256+shardCount {
		t.Fatalf("size %d exceeds bound", st.Size)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("counters not moving: %+v", st)
	}
}

func BenchmarkContainsHit(b *testing.B) {
	c := New(1 << 12)
	k := key(7)
	c.Add(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Contains(k)
	}
}

// refLRU is the reference model: one container/list LRU per shard,
// with the cache's sharding and per-shard bound.
type refLRU struct {
	cap       int
	shards    [shardCount]*list.List
	elems     map[Key]*list.Element
	evictions uint64
}

func newRefLRU(capacity int) *refLRU {
	m := &refLRU{cap: (capacity + shardCount - 1) / shardCount, elems: make(map[Key]*list.Element)}
	for i := range m.shards {
		m.shards[i] = list.New()
	}
	return m
}

func (m *refLRU) contains(k Key) bool {
	e, ok := m.elems[k]
	if ok {
		m.shards[int(k[0])%shardCount].MoveToFront(e)
	}
	return ok
}

func (m *refLRU) add(k Key) {
	l := m.shards[int(k[0])%shardCount]
	if e, ok := m.elems[k]; ok {
		l.MoveToFront(e)
		return
	}
	if l.Len() == m.cap {
		delete(m.elems, l.Remove(l.Back()).(Key))
		m.evictions++
	}
	m.elems[k] = l.PushFront(k)
}

func TestMatchesReferenceLRU(t *testing.T) {
	// Per-shard caps 1, 7 and 4096. Keys land in two shards so the
	// largest cap still evicts within a short run; the key universe is
	// half again the room those shards have.
	for _, capacity := range []int{shardCount, 7*shardCount - 3, DefaultCapacity} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			per := (capacity + shardCount - 1) / shardCount
			universe := make([]Key, 2*per*3/2+2)
			for i := range universe {
				rng.Read(universe[i][:])
				universe[i][0] = byte(i % 2 * 5)
			}
			c, m := New(capacity), newRefLRU(capacity)
			ops := 6 * len(universe)
			for op := 0; op < ops; op++ {
				k := universe[rng.Intn(len(universe))]
				if rng.Intn(2) == 0 {
					if got, want := c.Contains(k), m.contains(k); got != want {
						t.Fatalf("op %d: Contains=%v, reference %v", op, got, want)
					}
				} else {
					c.Add(k)
					m.add(k)
				}
				if got, want := c.Len(), len(m.elems); got != want {
					t.Fatalf("op %d: Len=%d, reference %d", op, got, want)
				}
				if got := c.evictions.Load(); got != m.evictions {
					t.Fatalf("op %d: Evictions=%d, reference %d", op, got, m.evictions)
				}
			}
			if m.evictions == 0 {
				t.Fatal("run never evicted")
			}
		})
	}
}

func TestSameShardFlood(t *testing.T) {
	// Every key shares byte 0 (one shard) and bytes 1..8, so only the
	// seeded hash of the whole key spreads them over the index.
	c := New(DefaultCapacity)
	per := DefaultCapacity / shardCount
	flood := func(i int) Key {
		var k Key
		k[0] = 9
		binary.LittleEndian.PutUint64(k[1:], 0xdeadbeef)
		binary.LittleEndian.PutUint64(k[9:], uint64(i))
		return k
	}
	n := 3 * per
	for i := 0; i < n; i++ {
		c.Add(flood(i))
		// A miss leaves the order alone; the key added per
		// insertions ago must be the one just evicted.
		if i >= per && c.Contains(flood(i-per)) {
			t.Fatalf("key %d survived %d newer keys", i-per, per)
		}
	}
	if c.Len() != per {
		t.Fatalf("Len=%d, want %d", c.Len(), per)
	}
	if got, want := c.Stats().Evictions, uint64(n-per); got != want {
		t.Fatalf("Evictions=%d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		if got, want := c.Contains(flood(i)), i >= n-per; got != want {
			t.Fatalf("key %d: Contains=%v, want %v", i, got, want)
		}
	}
}

func BenchmarkAddEvict(b *testing.B) {
	c := New(1 << 12)
	keys := make([]Key, 1<<13)
	for i := range keys {
		keys[i] = key(i)
	}
	for _, k := range keys {
		c.Add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(keys[i%len(keys)])
	}
}
