package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/ingest"
	"ebv/internal/txmodel"
)

// This file implements the parallel proof-verification pipeline
// (WithParallelValidation). EBV's proof-carrying inputs make every
// transaction's expensive work — consistency binding, sighash, per-
// input Merkle folds (EV), and script execution (SV) — independent of
// every other transaction: it reads only the immutable header chain
// and the proof bytes the block itself carries. A worker pool runs
// that work concurrently, one task per transaction, and records a
// verdict. The checks that need cross-input or chain state — UV
// probes, duplicate-spend detection, maturity, value conservation,
// the subsidy rule, and the bit-vector commit — run afterwards in a
// cheap sequential reduce over the verdicts, replicating the
// sequential path's scan order exactly so that acceptance, rejection,
// and the reported error are bit-for-bit identical.
//
// Determinism: runWorkers guarantees that every task index at or
// below the lowest failing index ran to completion, so the reduce —
// which scans verdicts in transaction order and stops at the first
// failure — always reaches the same error for the same block, no
// matter how the goroutines were scheduled.

// runWorkers executes fn(0) … fn(n-1) on up to workers goroutines.
// Tasks are claimed in strictly increasing index order. When fn
// returns false the pool is cancelled past that index: cancelAt only
// ever decreases (CAS-min), a claimed task always runs to completion,
// and a task is skipped only when its index exceeds cancelAt at claim
// time. Since the final cancelAt is the minimum failing index F, every
// index <= F has a complete result when runWorkers returns — the
// property the callers' deterministic minimum-index error selection
// rests on. workers <= 1 degenerates to a sequential loop with early
// exit, sharing the code path so both modes behave identically.
func runWorkers(workers, n int, fn func(i int) bool) {
	// Single-task or single-worker calls run inline on the calling
	// goroutine: no goroutines, no WaitGroup, no atomics — a
	// one-transaction block pays nothing for the pool machinery.
	if n <= 1 || workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		cancelAt atomic.Int64
		wg       sync.WaitGroup
	)
	cancelAt.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > cancelAt.Load() {
					return
				}
				if !fn(int(i)) {
					for {
						cur := cancelAt.Load()
						if i >= cur || cancelAt.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// inputVerdict is one input's worker-side result: the spent output
// extracted by EV, the EV and SV errors (SV is skipped when EV fails —
// there is no locking script to run), and the time each phase took on
// its worker.
type inputVerdict struct {
	out   *txmodel.TxOut
	evErr error
	svErr error
	ev    time.Duration
	sv    time.Duration
}

// txVerdict is one transaction's worker-side result.
type txVerdict struct {
	coinbase bool // non-first coinbase: structural failure
	consErr  error
	inputs   []inputVerdict
	other    time.Duration // consistency + sighash time
	// cacheHits and cacheMisses count this transaction's verified-proof
	// cache probes; the reduce folds them into the Breakdown.
	cacheHits   int
	cacheMisses int
}

// ok reports whether the verdict carries any failure. A false return
// cancels the pool past this transaction's index.
func (tv *txVerdict) ok() bool {
	if tv.coinbase || tv.consErr != nil {
		return false
	}
	for i := range tv.inputs {
		if tv.inputs[i].evErr != nil || tv.inputs[i].svErr != nil {
			return false
		}
	}
	return true
}

// verifyTx performs the worker-side share of one transaction's
// validation: consistency binding, sighash, and per-input EV + SV. It
// touches only immutable chain state (headers) and the transaction's
// own proof bytes, so any number of verifyTx calls may run
// concurrently.
func (v *EBVValidator) verifyTx(tx *txmodel.EBVTx) *txVerdict {
	tv := &txVerdict{}
	w := newStopwatch()
	if tx.Tidy.IsCoinbase() {
		tv.coinbase = true
		w.lap(&tv.other)
		return tv
	}
	if err := tx.Consistent(); err != nil {
		tv.consErr = err
		w.lap(&tv.other)
		return tv
	}
	sigHash := tx.SigHash()
	w.lap(&tv.other)
	tv.inputs = make([]inputVerdict, len(tx.Bodies))
	for bi := range tx.Bodies {
		iv := &tv.inputs[bi]
		body := &tx.Bodies[bi]
		// Verified-proof cache: a hit stands in for a clean EV fold and
		// script execution; the reduce still runs UV and every other
		// live-state check. Connect only probes (admission is the
		// cache's sole writer), and probes need no coordination.
		key, keyOK := v.cacheKey(body, sigHash)
		if keyOK {
			sw := newStopwatch()
			hit := v.vcache.Contains(key)
			var out *txmodel.TxOut
			if hit {
				out, hit = body.SpentOutput()
			}
			sw.lap(&iv.ev)
			if hit {
				tv.cacheHits++
				iv.out = out
				continue
			}
			tv.cacheMisses++
		}
		sw := newStopwatch()
		out, err := v.evInput(body)
		sw.lap(&iv.ev)
		if err != nil {
			iv.evErr = err
			continue
		}
		iv.out = out
		sw = newStopwatch()
		iv.svErr = v.engine.Execute(body.UnlockScript, out.LockScript, sigHash)
		sw.lap(&iv.sv)
	}
	return tv
}

// Preverified carries stage A's output for one block: the structure
// verdict's bookkeeping plus one proof-verification verdict per
// transaction, ready for the sequential reduce (ConnectPreverified).
// A Preverified is consumed exactly once; its Breakdown accumulates
// across both stages.
type Preverified struct {
	verdicts []*txVerdict
	bd       Breakdown
}

// Breakdown exposes the work recorded so far — pipeline drivers report
// it for blocks whose stage A failed and that never reach stage B.
func (p *Preverified) Breakdown() *Breakdown { return &p.bd }

// Preverify runs stage A of the cross-block pipeline for one block:
// the structure check and the proof-verification fan-out —
// consistency binding, sighash, per-input EV Merkle folds and SV
// script execution, all verified-proof-cache aware — on up to workers
// goroutines. hs, when non-nil, replaces the validator's own header
// view; a pipeline passes an overlay that already includes the
// headers of preverified-but-uncommitted predecessors, which is what
// lets block N+K verify before block N commits. Nothing here reads or
// writes the status database, so any number of Preverify calls may
// run while earlier blocks connect. The live-state checks — UV,
// duplicate spends, maturity, value conservation, the commit — happen
// in ConnectPreverified, in height order.
func (v *EBVValidator) Preverify(b *blockmodel.EBVBlock, hs HeaderSource, workers int) (*Preverified, error) {
	sv := *v // shallow copy: swap only the header view
	if hs != nil {
		sv.headers = hs
	}
	pv := &Preverified{bd: Breakdown{Txs: len(b.Txs), Inputs: b.TotalInputs(), Outputs: b.TotalOutputs()}}
	bd := &pv.bd
	w := newStopwatch()
	if err := sv.checkStructure(b); err != nil {
		w.lap(&bd.Other)
		return pv, err
	}
	w.lap(&bd.Other)

	// Fan out: one task per non-coinbase transaction. verdicts[0]
	// stays nil — the coinbase is covered by structure + subsidy.
	pv.verdicts = make([]*txVerdict, len(b.Txs))
	if len(b.Txs) > 1 {
		var poolWall time.Duration
		pw := newStopwatch()
		runWorkers(workers, len(b.Txs)-1, func(i int) bool {
			tv := sv.verifyTx(b.Txs[i+1])
			pv.verdicts[i+1] = tv
			return tv.ok()
		})
		pw.lap(&poolWall)
		sv.chargePool(bd, pv.verdicts, poolWall)
	}
	return pv, nil
}

// ConnectPreverified runs stage B for a block whose proofs Preverify
// already checked: it re-verifies the linkage against the committed
// tip (stage A may have verified against speculative predecessors
// that never connected), then performs the sequential reduce and the
// status-database commit. Acceptance, rejection, and the reported
// error are bit-for-bit identical to ConnectBlock on the same state.
// The returned Breakdown aggregates both stages.
func (v *EBVValidator) ConnectPreverified(b *blockmodel.EBVBlock, pv *Preverified) (*Breakdown, error) {
	return v.ConnectPreverifiedIn(b, pv, nil)
}

// ConnectPreverifiedIn is ConnectPreverified with an optional ingest
// scratch for the reduce's spend/probe/dedup buffers (see
// ConnectBlockIn). Pipeline drivers pass the scratch the block was
// decoded with.
func (v *EBVValidator) ConnectPreverifiedIn(b *blockmodel.EBVBlock, pv *Preverified, s *ingest.Scratch) (*Breakdown, error) {
	bd := &pv.bd
	w := newStopwatch()
	if err := v.checkLink(b); err != nil {
		w.lap(&bd.Other)
		return bd, err
	}
	w.lap(&bd.Other)
	return bd, v.reduceAndConnect(b, pv.verdicts, bd, s)
}

// connectBlockParallel is ConnectBlock for pipeline mode: stage A and
// stage B back to back on the caller's state. The Breakdown stays
// honest under concurrency: the fan-out phase is charged at its
// wall-clock duration, apportioned across EV, SV and Other in
// proportion to the summed worker time each phase consumed — so
// Total() still approximates real elapsed time instead of summed
// worker time.
func (v *EBVValidator) connectBlockParallel(b *blockmodel.EBVBlock, s *ingest.Scratch) (*Breakdown, error) {
	pv, err := v.Preverify(b, nil, v.pipeline)
	bd := &pv.bd
	if err != nil {
		return bd, err
	}
	return bd, v.reduceAndConnect(b, pv.verdicts, bd, s)
}

// reduceAndConnect is the shared stage B body: the sequential reduce
// over worker verdicts, replicating the sequential path's exact check
// order — batched UV probes consumed in scan order, duplicate-spend
// detection, maturity, value conservation, subsidy — so the first
// failure and its message are identical, followed by the bit-vector
// commit. Worker-failed transactions cancel the pool past their
// index, so a nil verdict can only sit beyond the index the scan
// stops at; the guard below is belt and braces.
func (v *EBVValidator) reduceAndConnect(b *blockmodel.EBVBlock, verdicts []*txVerdict, bd *Breakdown, s *ingest.Scratch) error {
	uv := v.probeUV(collectSpends(b, s), bd, s)
	idx := 0
	seen := scratchSeen(s, bd.Inputs)
	var totalFees uint64
	w := newStopwatch()

	for ti, tx := range b.Txs {
		if ti == 0 {
			continue
		}
		tv := verdicts[ti]
		if tv == nil {
			w.lap(&bd.Other)
			return fmt.Errorf("%w: tx %d skipped by cancelled pool", ErrInvalidBlock, ti)
		}
		if tv.coinbase {
			w.lap(&bd.Other)
			return fmt.Errorf("%w: tx %d", ErrExtraCoinbase, ti)
		}
		if tv.consErr != nil {
			w.lap(&bd.Other)
			return fmt.Errorf("%w: tx %d: %v", ErrBadProof, ti, tv.consErr)
		}

		var inSum uint64
		for bi := range tx.Bodies {
			body := &tx.Bodies[bi]
			iv := &tv.inputs[bi]
			sp := uv.spends[idx]
			if _, dup := seen[sp]; dup {
				w.lap(&bd.UV)
				return fmt.Errorf("%w: height %d position %d", ErrDuplicateSpend, sp.Height, sp.Pos)
			}
			seen[sp] = struct{}{}
			w.lap(&bd.UV)

			// EV ran on the workers; the UV verdict applies here, in
			// the same EV-then-UV-then-SV order the sequential path
			// checks.
			if iv.evErr != nil {
				w = newStopwatch()
				return fmt.Errorf("tx %d input %d: %w", ti, bi, iv.evErr)
			}
			if err := uv.check(idx); err != nil {
				w = newStopwatch()
				return fmt.Errorf("tx %d input %d: %w", ti, bi, err)
			}
			if iv.svErr != nil {
				w = newStopwatch()
				return fmt.Errorf("tx %d input %d: %w: %v", ti, bi, ErrScriptFailed, iv.svErr)
			}
			w = newStopwatch()

			if body.PrevTx.IsCoinbase() && b.Header.Height-body.Height < txmodel.CoinbaseMaturity {
				w.lap(&bd.Other)
				return fmt.Errorf("%w: tx %d input %d", ErrImmature, ti, bi)
			}
			if inSum+iv.out.Value < inSum {
				w.lap(&bd.Other)
				return fmt.Errorf("%w: tx %d", ErrOverflow, ti)
			}
			inSum += iv.out.Value
			idx++
			w.lap(&bd.Other)
		}

		outSum, ok := tx.OutputSum()
		if !ok {
			w.lap(&bd.Other)
			return fmt.Errorf("%w: tx %d", ErrOverflow, ti)
		}
		if outSum > inSum {
			w.lap(&bd.Other)
			return fmt.Errorf("%w: tx %d spends %d, creates %d", ErrValueImbalance, ti, inSum, outSum)
		}
		fee := inSum - outSum
		if totalFees+fee < totalFees {
			w.lap(&bd.Other)
			return fmt.Errorf("%w: fees", ErrOverflow)
		}
		totalFees += fee
		w.lap(&bd.Other)
	}

	cbSum, ok := b.Txs[0].OutputSum()
	if !ok {
		w.lap(&bd.Other)
		return fmt.Errorf("%w: coinbase", ErrOverflow)
	}
	if cbSum > blockmodel.Subsidy(b.Header.Height)+totalFees {
		w.lap(&bd.Other)
		return fmt.Errorf("%w: claims %d, allowed %d", ErrBadSubsidy, cbSum, blockmodel.Subsidy(b.Header.Height)+totalFees)
	}
	w.lap(&bd.Other)

	// Every input passed, so the collected spends are exactly the
	// spends to apply.
	if err := v.status.Connect(b.Header.Height, bd.Outputs, uv.spends); err != nil {
		w.lap(&bd.Other)
		return fmt.Errorf("%w: %v", ErrInvalidBlock, err)
	}
	w.lap(&bd.Other)
	return nil
}

// chargePool distributes the fan-out phase's wall-clock duration
// across the Breakdown's EV, SV and Other counters in proportion to
// the summed per-worker time each phase consumed. Summed worker time
// overstates elapsed time by up to the worker count; wall clock is
// what the paper's figures plot.
func (v *EBVValidator) chargePool(bd *Breakdown, verdicts []*txVerdict, wall time.Duration) {
	var sEV, sSV, sOther time.Duration
	for _, tv := range verdicts {
		if tv == nil {
			continue
		}
		sOther += tv.other
		bd.CacheHits += tv.cacheHits
		bd.CacheMisses += tv.cacheMisses
		for i := range tv.inputs {
			sEV += tv.inputs[i].ev
			sSV += tv.inputs[i].sv
		}
	}
	total := sEV + sSV + sOther
	if total <= 0 {
		bd.Other += wall
		return
	}
	ev := time.Duration(int64(wall) * int64(sEV) / int64(total))
	sv := time.Duration(int64(wall) * int64(sSV) / int64(total))
	bd.EV += ev
	bd.SV += sv
	bd.Other += wall - ev - sv
}
