// Package ingest holds the per-block scratch state of the wire-speed
// block ingest path: a decode arena, a reusable block shell, and the
// spend/probe/dedup buffers the connect reduction needs. One Scratch
// serves one block (or one admission batch of transactions) at a
// time; recycling it through Get/Release makes a warm decode+connect
// perform ~0 heap allocations per input.
//
// Ownership contract (see also DESIGN.md):
//
//   - DecodeEBVBlock borrows the wire bytes: the returned block
//     aliases data and arena slabs, and is valid only until the next
//     DecodeEBVBlock on the same Scratch or Release. Callers must keep
//     data alive and unmodified for that window, and must treat the
//     block as immutable after decode. DecodeEBVTx borrows the same
//     way; its transactions accumulate in the arena until the next
//     DecodeEBVBlock or Release.
//   - The spends/probes/seen buffers are handed to exactly one
//     in-flight connect at a time; a Scratch must not be shared
//     between concurrently validating blocks.
package ingest

import (
	"sync"

	"ebv/internal/blockmodel"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
)

// Scratch is the reusable per-block ingest state.
type Scratch struct {
	arena  txmodel.Arena
	block  blockmodel.EBVBlock
	spends []statusdb.Spend
	probes []statusdb.ProbeResult
	seen   map[statusdb.Spend]struct{}
}

// NewScratch returns an empty Scratch. Most callers should prefer
// Get/Release so slab growth is amortized across blocks.
func NewScratch() *Scratch {
	return &Scratch{seen: make(map[statusdb.Spend]struct{})}
}

var pool = sync.Pool{New: func() any { return NewScratch() }}

// Get takes a Scratch from the shared pool.
func Get() *Scratch { return pool.Get().(*Scratch) }

// Release rewinds the arena and returns the Scratch to the pool. The
// caller must not touch the Scratch — or any block or transaction
// previously decoded with it — afterwards.
func (s *Scratch) Release() {
	s.arena.Reset()
	pool.Put(s)
}

// DecodeEBVBlock decodes data into the scratch's block shell using
// borrowed-bytes decoding (see blockmodel.DecodeEBVBlockInto). It
// resets the arena first, invalidating any block previously decoded
// with this Scratch.
func (s *Scratch) DecodeEBVBlock(data []byte) (*blockmodel.EBVBlock, error) {
	s.arena.Reset()
	if err := blockmodel.DecodeEBVBlockInto(&s.block, data, &s.arena); err != nil {
		return nil, err
	}
	return &s.block, nil
}

// DecodeEBVTx borrow-decodes data as one transaction into the
// scratch's arena (see txmodel.DecodeEBVTxInto). It does not reset the
// arena, so every transaction decoded since the last DecodeEBVBlock or
// Get stays valid until Release: one Scratch holds a whole admission
// batch.
func (s *Scratch) DecodeEBVTx(data []byte) (*txmodel.EBVTx, error) {
	tx := s.arena.AllocTx()
	if err := txmodel.DecodeEBVTxInto(tx, data, &s.arena); err != nil {
		return nil, err
	}
	return tx, nil
}

// Spends returns a length-0 spend buffer with capacity for at least n.
func (s *Scratch) Spends(n int) []statusdb.Spend {
	if cap(s.spends) < n {
		s.spends = make([]statusdb.Spend, 0, n)
	}
	return s.spends[:0]
}

// Probes returns a probe-result buffer of length n.
func (s *Scratch) Probes(n int) []statusdb.ProbeResult {
	if cap(s.probes) < n {
		s.probes = make([]statusdb.ProbeResult, n)
	}
	return s.probes[:n]
}

// Seen returns the cleared duplicate-spend map.
func (s *Scratch) Seen() map[statusdb.Spend]struct{} {
	if s.seen == nil {
		s.seen = make(map[statusdb.Spend]struct{})
	}
	clear(s.seen)
	return s.seen
}
