package txmodel

import "ebv/internal/hashx"

// Arena is a bump allocator for the structures a borrowed-bytes decode
// produces: input-hash and sibling slices, outputs, input bodies, and
// the EBV transaction shells themselves. A block decode performs many
// small slice allocations; carving them all out of a handful of
// reusable slabs makes a warm decode allocation-free.
//
// Ownership contract: every slice handed out by an Arena is valid only
// until the next Reset. Reset does not zero or free the slabs — it
// rewinds them — so callers must not retain decoded structures across
// blocks. Alloc itself clears the span it returns, which matters for
// the memoized-hash fields embedded in TidyTx/InputBody/EBVTx: a slab
// position reused across blocks must never serve a stale digest.
//
// A nil *Arena is valid for every Alloc method and heap-allocates, so
// one decoder body serves both borrowed (arena) and copying (nil) mode.
//
// An Arena is not safe for concurrent use. It is designed to be owned
// by one ingest scratch (see internal/ingest) and recycled through a
// sync.Pool.
type Arena struct {
	hashes slab[hashx.Hash]
	outs   slab[TxOut]
	bodies slab[InputBody]
	txs    slab[EBVTx]
	txps   slab[*EBVTx]
}

// Reset rewinds every slab, invalidating all previously returned
// slices and pointers. The backing arrays are retained, so a
// steady-state decode cycle allocates nothing.
func (a *Arena) Reset() {
	a.hashes.reset()
	a.outs.reset()
	a.bodies.reset()
	a.txs.reset()
	a.txps.reset()
}

// AllocHashes returns a cleared hash slice of length n from the arena.
// It implements merkle.HashAllocator so branch siblings decode straight
// into the arena.
func (a *Arena) AllocHashes(n int) []hashx.Hash {
	if a == nil {
		return make([]hashx.Hash, n)
	}
	return a.hashes.alloc(n)
}

// AllocOuts returns a cleared output slice of length n.
func (a *Arena) AllocOuts(n int) []TxOut {
	if a == nil {
		return make([]TxOut, n)
	}
	return a.outs.alloc(n)
}

// AllocBodies returns a cleared input-body slice of length n.
func (a *Arena) AllocBodies(n int) []InputBody {
	if a == nil {
		return make([]InputBody, n)
	}
	return a.bodies.alloc(n)
}

// AllocTx returns a cleared EBV transaction shell.
func (a *Arena) AllocTx() *EBVTx {
	if a == nil {
		return new(EBVTx)
	}
	return &a.txs.alloc(1)[0]
}

// AllocTxPtrs returns a cleared []*EBVTx of length n.
func (a *Arena) AllocTxPtrs(n int) []*EBVTx {
	if a == nil {
		return make([]*EBVTx, n)
	}
	return a.txps.alloc(n)
}

// slab is a growable bump allocator over one element type. Growth
// abandons the old backing array rather than copying, so slices handed
// out before a grow stay valid (the garbage collector keeps the old
// array alive for as long as they are referenced); only Reset
// invalidates outstanding allocations.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) alloc(n int) []T {
	if s.off+n > len(s.buf) {
		c := 2 * len(s.buf)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		s.buf = make([]T, c)
		s.off = 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(out)
	return out
}

func (s *slab[T]) reset() { s.off = 0 }
