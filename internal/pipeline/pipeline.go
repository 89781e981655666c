// Package pipeline overlaps proof verification of future blocks with
// the sequential commit of past ones — the cross-block counterpart of
// the per-block parallel pipeline (core.WithParallelValidation).
//
// The paper's structural insight makes this safe: EV and SV are
// verifiable from each input's carried proof (MBr, ELs, height,
// position) against already-validated headers alone; only UV reads
// the live bit-vector state. So while block N runs its UV probes and
// commits, blocks N+1..N+K can already decode, structure-check, and
// verify every EV Merkle fold and SV script — the expensive work —
// on otherwise idle cores:
//
//	stage A (producer)                stage B (consumer, height order)
//	fetch -> decode -> structure  ─┐
//	  -> EV+SV fan-out against    ─┤ bounded   UV probes, dup-spend,
//	     committed + speculative  ─┼─ channel ─ maturity, value rules,
//	     headers (overlay)        ─┤ (depth K) statusdb.Connect,
//	  -> pre-encode for storage   ─┘           chain append
//
// Failure semantics are byte-for-byte those of sequential IBD: stage B
// consumes strictly in height order and stops at the first error, so
// the pipeline reports the same first error at the same height as a
// one-block-at-a-time replay; speculative work for later blocks is
// discarded unseen, and nothing past the failing height ever touches
// the status database or the chain store.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/ingest"
)

// Source supplies serialized blocks by height (chainstore.Store
// satisfies it). BlockBytes must hand ownership of the returned slice
// to the caller: the pipeline decodes blocks zero-copy against those
// bytes and holds them until the block commits, so the source must not
// reuse or mutate a returned buffer.
type Source interface {
	TipHeight() (uint64, bool)
	BlockBytes(height uint64) ([]byte, error)
}

// Chain is the destination chain: the validator's committed header
// view plus block storage (chainstore.Store satisfies it).
type Chain interface {
	core.HeaderSource
	Append(header blockmodel.Header, blockBytes []byte) error
}

// Config parameterizes one pipelined run.
type Config struct {
	// Depth bounds how many fully preverified blocks may wait for
	// commit — the channel capacity between the stages, and so the
	// backpressure limit on how far stage A runs ahead. Values < 1
	// are treated as 1.
	Depth int
	// Workers is the per-block fan-out width stage A hands to
	// core.Preverify; <= 1 verifies each block on the producer
	// goroutine alone.
	Workers int
	// Progress, when non-nil, is called after every committed block
	// with the block and its full (stage A + stage B) Breakdown. It
	// runs on the consumer goroutine, in height order. blk may alias
	// pooled decode storage and is valid only for the duration of the
	// call. It is not called for the failing block — BlockError
	// carries that block's partial work.
	Progress func(blk *blockmodel.EBVBlock, bd *core.Breakdown)
}

// BlockError reports the first failure of a pipelined run, pinned to
// its height. Breakdown holds the failing block's partial work (nil
// when the block never decoded); Fetch marks source read errors,
// which are I/O conditions rather than validation verdicts.
type BlockError struct {
	Height    uint64
	Breakdown *core.Breakdown
	Err       error
	Fetch     bool
}

func (e *BlockError) Error() string { return fmt.Sprintf("height %d: %v", e.Height, e.Err) }

func (e *BlockError) Unwrap() error { return e.Err }

// item is one block's trip through the bounded channel.
type item struct {
	height uint64
	blk    *blockmodel.EBVBlock
	enc    []byte // the original wire bytes, appended verbatim
	pv     *core.Preverified
	scr    *ingest.Scratch // decode arena + connect buffers; blk aliases it
	err    error
	fetch  bool
}

// Run replays src's blocks from start through v into chain with
// cross-block overlap. On success every block up to the source tip is
// validated, committed, and appended. On failure it returns a
// *BlockError for the first bad block; the chain and status database
// are left exactly at the last good tip, as sequential replay would.
func Run(src Source, chain Chain, v *core.EBVValidator, start uint64, cfg Config) error {
	tip, ok := src.TipHeight()
	if !ok || start > tip {
		return nil
	}
	depth := cfg.Depth
	if depth < 1 {
		depth = 1
	}

	ov := newOverlay(chain)
	out := make(chan *item, depth)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	defer stop()

	// Stage A: fetch, decode, structure-check, and preverify ahead of
	// the committer. Each block's header joins the overlay before the
	// next block verifies, so EV proofs may reference any predecessor
	// — committed or still in flight. The bounded send is the
	// backpressure: at most depth finished blocks (plus the one in
	// progress) ever run ahead of stage B.
	go func() {
		defer close(out)
		for h := start; h <= tip; h++ {
			select {
			case <-quit:
				return
			default:
			}
			it := &item{height: h}
			raw, err := src.BlockBytes(h)
			if err != nil {
				it.err, it.fetch = err, true
			} else {
				scr := ingest.Get()
				if blk, err := scr.DecodeEBVBlock(raw); err != nil {
					scr.Release()
					it.err = err
				} else {
					it.blk, it.scr = blk, scr
					pv, err := v.Preverify(blk, ov, cfg.Workers)
					it.pv, it.err = pv, err
					if err == nil {
						// The source hands the bytes over; append them
						// verbatim instead of re-encoding the block.
						it.enc = raw
						ov.push(blk.Header)
					}
				}
			}
			select {
			case out <- it:
			case <-quit:
				return
			}
			if it.err != nil {
				// Sequential IBD stops at its first bad block; so does
				// the producer. Later blocks are never even decoded.
				return
			}
		}
	}()

	// Stage B: commit strictly in height order.
	for it := range out {
		if it.err != nil {
			var bd *core.Breakdown
			if it.pv != nil {
				bd = it.pv.Breakdown()
			}
			return &BlockError{Height: it.height, Breakdown: bd, Err: it.err, Fetch: it.fetch}
		}
		bd, err := v.ConnectPreverified(it.blk, it.pv, it.scr)
		if err != nil {
			stop()
			return &BlockError{Height: it.height, Breakdown: bd, Err: err}
		}
		aw := time.Now()
		if err := chain.Append(it.blk.Header, it.enc); err != nil {
			stop()
			return &BlockError{Height: it.height, Breakdown: bd, Err: err}
		}
		bd.Other += time.Since(aw)
		if cfg.Progress != nil {
			cfg.Progress(it.blk, bd)
		}
		it.scr.Release()
		ov.prune(it.height)
	}
	return nil
}

// overlay is the speculative header view stage A verifies against: the
// committed chain plus the contiguous run of preverified headers that
// have not connected yet. The producer pushes, the consumer prunes
// after each commit, and Preverify's EV folds read concurrently — all
// under one RWMutex (a handful of entries, never contended for long).
type overlay struct {
	base core.HeaderSource

	mu    sync.RWMutex
	start uint64 // height of spec[0], when spec is non-empty
	spec  []blockmodel.Header
}

func newOverlay(base core.HeaderSource) *overlay {
	return &overlay{base: base}
}

func (o *overlay) Header(h uint64) (blockmodel.Header, bool) {
	o.mu.RLock()
	if n := uint64(len(o.spec)); n > 0 && h >= o.start && h < o.start+n {
		hdr := o.spec[h-o.start]
		o.mu.RUnlock()
		return hdr, true
	}
	o.mu.RUnlock()
	return o.base.Header(h)
}

func (o *overlay) TipHeight() (uint64, bool) {
	o.mu.RLock()
	if n := uint64(len(o.spec)); n > 0 {
		tip := o.start + n - 1
		o.mu.RUnlock()
		return tip, true
	}
	o.mu.RUnlock()
	return o.base.TipHeight()
}

// push records a preverified header as the new speculative tip.
func (o *overlay) push(hdr blockmodel.Header) {
	o.mu.Lock()
	if len(o.spec) == 0 {
		o.start = hdr.Height
	}
	o.spec = append(o.spec, hdr)
	o.mu.Unlock()
}

// prune drops speculative entries at or below the committed height —
// the base now serves them.
func (o *overlay) prune(committed uint64) {
	o.mu.Lock()
	for len(o.spec) > 0 && o.start <= committed {
		o.spec = o.spec[1:]
		o.start++
	}
	if len(o.spec) == 0 {
		o.start = 0
	}
	o.mu.Unlock()
}
