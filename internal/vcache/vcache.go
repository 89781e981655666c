// Package vcache implements the verified-proof cache (Tier 1 of the
// verification-caching layer): a sharded, lock-striped, bounded LRU
// set of digests identifying proofs whose expensive checks — the
// Merkle fold of Existence Validation and the script execution of
// Script Validation — have already succeeded against the current
// header chain.
//
// The cache stores only keys, never verdicts: a key is a digest over
// the input-body bytes (MBr, Us, ELs, height, relative index), the
// transaction sighash, and the stored header the proof was verified
// against, so membership *is* the verdict. Any byte-level difference
// in the proof, any signature or output change (via the sighash), and
// any header change at the proof's height (via the header's Merkle
// root) produces a different key and therefore a miss — there is
// nothing an adversary can poison. Negative results are never cached.
//
// The set holds no pointers per entry. Each shard keeps its keys in
// one slab, links their LRU order with uint32 slot numbers, and finds
// a key's slot through an open-addressed uint32 index (linear probing,
// backward-shift deletion) hashed with a per-cache random seed, so a
// peer that grinds proof bytes cannot aim keys at one probe chain.
// All three arrays grow by doubling up to the shard's capacity: 48
// bytes per entry when full (32 key, 8 links, 8 index), about a hundred
// bytes per shard when empty, and nothing for the garbage collector to
// scan.
//
// Remove retires a key whose proof can no longer hit (block connect
// calls it for every key a committed block's inputs hit). It keeps
// the slab dense: the shard's last slot moves into the hole, with its
// index bucket and LRU neighbours repointed and its recency unchanged,
// so there is no free list. Remove never reallocates: the slab keeps
// its capacity, so a steady Add/Remove cycle allocates nothing.
//
// Bitcoin Core's signature cache plays the same role on the
// relay-to-block path; here the cached unit is the whole per-input
// proof check, which EBV makes self-contained.
package vcache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// KeySize is the byte length of a cache key.
const KeySize = 32

// Key identifies one verified proof. Callers derive it with a
// collision-resistant digest (see core's cache key derivation).
type Key [KeySize]byte

// DefaultCapacity is the entry bound used when New is given none.
// At about 48 bytes per entry once full (32 key, 8 LRU links, 8 index)
// this is 3 MiB.
const DefaultCapacity = 1 << 16

// shardCount stripes the lock. Keys are uniform digests, so the first
// byte balances the shards; 16 stripes keep contention negligible at
// any plausible worker count.
const shardCount = 16

// noSlot terminates the LRU links.
const noSlot = ^uint32(0)

// minGrow is the first allocation of a shard's slab and index.
const minGrow = 8

// Cache is a bounded LRU set of verified-proof keys. Safe for
// concurrent use.
type Cache struct {
	shards [shardCount]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// shard is one lock stripe: an exact LRU over at most cap keys.
// Slot i holds keys[i], linked to its neighbours in recency order by
// links[i]; index maps a key's hash to slot+1 (0 marks an empty
// bucket) and is kept at most half full.
type shard struct {
	mu    sync.Mutex
	seed  maphash.Seed
	cap   int
	keys  []Key
	links []link
	head  uint32 // most recently seen slot
	tail  uint32 // least recently seen slot
	index []uint32
}

type link struct{ prev, next uint32 }

// New creates a cache bounded at capacity entries in total across all
// shards; capacity <= 0 selects DefaultCapacity. Storage is allocated
// as keys arrive.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + shardCount - 1) / shardCount
	seed := maphash.MakeSeed()
	c := &Cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.seed, s.cap = seed, per
		s.head, s.tail = noSlot, noSlot
	}
	return c
}

func (c *Cache) shard(k *Key) *shard { return &c.shards[int(k[0])%shardCount] }

// Contains reports whether k was added and not yet evicted, bumping
// its recency and the hit/miss counters. The lookup allocates nothing.
func (c *Cache) Contains(k Key) bool {
	s := c.shard(&k)
	h := s.hash(&k)
	s.mu.Lock()
	_, slot, ok := s.find(&k, h)
	if ok {
		s.touch(slot)
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// Add records k as verified, evicting the least-recently-seen key of
// its shard when full. Adding an existing key only bumps its recency.
func (c *Cache) Add(k Key) {
	s := c.shard(&k)
	h := s.hash(&k)
	s.mu.Lock()
	if _, slot, ok := s.find(&k, h); ok {
		s.touch(slot)
		s.mu.Unlock()
		return
	}
	var slot uint32
	evicted := len(s.keys) == s.cap
	if evicted {
		// Reuse the least recently seen slot in place.
		slot = s.tail
		pos, _, _ := s.find(&s.keys[slot], s.hash(&s.keys[slot]))
		s.unindex(pos)
		s.unlink(slot)
		s.keys[slot] = k
	} else {
		// Resize the index while it covers only live slots: the new
		// slot's key is not written yet.
		if 2*(len(s.keys)+1) > len(s.index) {
			s.reindex(max(minGrow, 2*len(s.index)))
		}
		slot = uint32(len(s.keys))
		s.keys = appendGrow(s.keys, k, s.cap)
		s.links = appendGrow(s.links, link{}, s.cap)
	}
	pos, _, _ := s.find(&k, h)
	s.index[pos] = slot + 1
	s.pushFront(slot)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// appendGrow appends v, doubling the backing array when full but never
// past limit elements.
func appendGrow[T any](a []T, v T, limit int) []T {
	if len(a) == cap(a) {
		grown := make([]T, len(a), min(max(minGrow, 2*cap(a)), limit))
		copy(grown, a)
		a = grown
	}
	return append(a, v)
}

// hash is k's index hash; its low bits pick k's home bucket. The seed
// never changes, so callers hash before taking the lock.
func (s *shard) hash(k *Key) uint64 { return maphash.Bytes(s.seed, k[:]) }

// find probes the index for k, whose hash is h, returning k's bucket
// and slot when present, else the empty bucket where k would go.
func (s *shard) find(k *Key, h uint64) (pos, slot uint32, ok bool) {
	if len(s.index) == 0 {
		return 0, 0, false
	}
	mask := uint32(len(s.index) - 1)
	for pos = uint32(h) & mask; ; pos = (pos + 1) & mask {
		e := s.index[pos]
		if e == 0 {
			return pos, 0, false
		}
		if s.keys[e-1] == *k {
			return pos, e - 1, true
		}
	}
}

// unindex empties bucket pos and shifts later members of its probe run
// back, so every key stays reachable from its home bucket without
// tombstones.
func (s *shard) unindex(pos uint32) {
	mask := uint32(len(s.index) - 1)
	for next := (pos + 1) & mask; s.index[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole at pos only if pos lies
		// on its probe path, i.e. between its home and next.
		home := uint32(s.hash(&s.keys[s.index[next]-1])) & mask
		if (next-home)&mask >= (next-pos)&mask {
			s.index[pos] = s.index[next]
			pos = next
		}
	}
	s.index[pos] = 0
}

// reindex replaces the index with an empty one of n buckets (a power
// of two) and re-inserts every live slot.
func (s *shard) reindex(n int) {
	s.index = make([]uint32, n)
	for i := range s.keys {
		pos, _, _ := s.find(&s.keys[i], s.hash(&s.keys[i]))
		s.index[pos] = uint32(i) + 1
	}
}

// touch marks slot as the most recently seen.
func (s *shard) touch(slot uint32) {
	if s.head != slot {
		s.unlink(slot)
		s.pushFront(slot)
	}
}

func (s *shard) unlink(slot uint32) {
	l := s.links[slot]
	if l.prev == noSlot {
		s.head = l.next
	} else {
		s.links[l.prev].next = l.next
	}
	if l.next == noSlot {
		s.tail = l.prev
	} else {
		s.links[l.next].prev = l.prev
	}
}

func (s *shard) pushFront(slot uint32) {
	s.links[slot] = link{prev: noSlot, next: s.head}
	if s.head == noSlot {
		s.tail = slot
	} else {
		s.links[s.head].prev = slot
	}
	s.head = slot
}

// Remove deletes k, if present, without touching the hit, miss or
// eviction counters: a key whose proof's output has been spent can
// never hit again, so its owner retires it rather than waiting for
// capacity to push it out.
func (c *Cache) Remove(k Key) {
	s := c.shard(&k)
	h := s.hash(&k)
	s.mu.Lock()
	if pos, slot, ok := s.find(&k, h); ok {
		s.remove(pos, slot)
	}
	s.mu.Unlock()
}

// remove deletes the key in slot, indexed at bucket pos, keeping the
// slab dense: the shard's last slot moves into the hole (its index
// bucket and its LRU neighbours follow it; its recency does not
// change) and the slab shrinks by one.
func (s *shard) remove(pos, slot uint32) {
	s.unindex(pos)
	s.unlink(slot)
	last := uint32(len(s.keys) - 1)
	if slot != last {
		lpos, _, _ := s.find(&s.keys[last], s.hash(&s.keys[last]))
		s.index[lpos] = slot + 1
		s.keys[slot] = s.keys[last]
		l := s.links[last]
		s.links[slot] = l
		if l.prev == noSlot {
			s.head = slot
		} else {
			s.links[l.prev].next = slot
		}
		if l.next == noSlot {
			s.tail = slot
		} else {
			s.links[l.next].prev = slot
		}
	}
	s.keys = s.keys[:last]
	s.links = s.links[:last]
}

// Len returns the number of cached keys.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.keys)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// Stats snapshots the hit/miss/eviction counters and current size.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
	}
}
