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
				c.Remove(key(g*500 + i/2))
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

func (m *refLRU) remove(k Key) {
	if e, ok := m.elems[k]; ok {
		m.shards[int(k[0])%shardCount].Remove(e)
		delete(m.elems, k)
	}
}

// sameOrder walks every shard's LRU links both ways and checks them
// against the reference's recency order, so a slot moved by Remove's
// compaction must keep its place.
func sameOrder(t *testing.T, c *Cache, m *refLRU, op int) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		l := m.shards[i]
		if len(s.keys) != l.Len() {
			t.Fatalf("op %d: shard %d holds %d keys, reference %d", op, i, len(s.keys), l.Len())
		}
		e := l.Front()
		for slot := s.head; slot != noSlot; slot = s.links[slot].next {
			if e == nil || s.keys[slot] != e.Value.(Key) {
				t.Fatalf("op %d: shard %d recency order diverges from the reference", op, i)
			}
			e = e.Next()
		}
		if e != nil {
			t.Fatalf("op %d: shard %d forward walk ends early", op, i)
		}
		e = l.Back()
		for slot := s.tail; slot != noSlot; slot = s.links[slot].prev {
			if e == nil || s.keys[slot] != e.Value.(Key) {
				t.Fatalf("op %d: shard %d backward links diverge from the reference", op, i)
			}
			e = e.Prev()
		}
		if e != nil {
			t.Fatalf("op %d: shard %d backward walk ends early", op, i)
		}
	}
}

func TestMatchesReferenceLRU(t *testing.T) {
	// Per-shard caps 1, 7 and 4096. Keys land in two shards so the
	// largest cap still evicts within a short run; the key universe is
	// half again the room those shards have. A random mix of Contains,
	// Add and Remove is followed by removing every key and refilling
	// the shards.
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
			check := func(op int) {
				if got, want := c.Len(), len(m.elems); got != want {
					t.Fatalf("op %d: Len=%d, reference %d", op, got, want)
				}
				if got := c.evictions.Load(); got != m.evictions {
					t.Fatalf("op %d: Evictions=%d, reference %d", op, got, m.evictions)
				}
				if per <= 64 || op%1021 == 0 {
					sameOrder(t, c, m, op)
				}
			}
			ops := 6 * len(universe)
			for op := 0; op < ops; op++ {
				k := universe[rng.Intn(len(universe))]
				switch rng.Intn(8) {
				case 0, 1, 2:
					if got, want := c.Contains(k), m.contains(k); got != want {
						t.Fatalf("op %d: Contains=%v, reference %v", op, got, want)
					}
				case 3, 4, 5, 6:
					c.Add(k)
					m.add(k)
				default:
					c.Remove(k)
					m.remove(k)
				}
				check(op)
			}
			if m.evictions == 0 {
				t.Fatal("run never evicted")
			}
			sameOrder(t, c, m, ops)

			for i, j := range rng.Perm(len(universe)) {
				c.Remove(universe[j])
				m.remove(universe[j])
				check(ops + i)
			}
			if c.Len() != 0 {
				t.Fatalf("Len=%d after removing every key", c.Len())
			}
			for i, j := range rng.Perm(len(universe)) {
				c.Add(universe[j])
				m.add(universe[j])
				check(ops + len(universe) + i)
			}
			sameOrder(t, c, m, ops+2*len(universe))
			for _, k := range universe {
				if got, want := c.Contains(k), m.contains(k); got != want {
					t.Fatalf("refill: Contains=%v, reference %v", got, want)
				}
			}
		})
	}
}

func TestRemove(t *testing.T) {
	c := New(64)
	c.Add(key(1))
	c.Add(key(2))
	c.Remove(key(1))
	c.Remove(key(3)) // absent: a no-op
	if c.Len() != 1 || !c.Contains(key(2)) || c.Contains(key(1)) {
		t.Fatalf("after Remove: Len=%d", c.Len())
	}
	// Remove counts nothing: the two probes above are the only ones.
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v", st)
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
