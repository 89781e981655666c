package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/ingest"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// This file implements block connect's two stages (ConnectBlockIn,
// sized by WithParallelValidation). EBV's proof-carrying inputs make
// every transaction's expensive work — consistency binding, sighash, per-
// input Merkle folds (EV), and script execution (SV) — independent of
// every other transaction: it reads only the immutable header chain
// and the proof bytes the block itself carries. A worker pool runs
// that work concurrently, one task per transaction, and records a
// verdict. The checks that need cross-input or chain state — UV
// probes, duplicate-spend detection, maturity, value conservation,
// the subsidy rule, and the bit-vector commit — run afterwards in a
// cheap sequential reduce over the verdicts, in the scan order of a
// one-loop validator (EV, UV, SV, maturity, value per input), so
// acceptance, rejection, and the reported error do not depend on the
// worker count. Every other verdict runs the same verify stage:
// transaction admission (txbatch.go) with its own non-committing
// reduce, and the light client's VerifyWithoutUV with the block reduce
// minus UV.
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
// exit, so both modes leave the same verdicts behind.
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
// there is no locking script to run), the time each phase took on its
// worker, and the verified-proof cache probe: the key, whether it was
// probed (a cache is installed and a header stands at the body's
// height) and whether it hit. The reduce's caller acts on the probe
// once the verdict is final — admission inserts a missed key,
// a committed block retires a hit one.
type inputVerdict struct {
	out    *txmodel.TxOut
	evErr  error
	svErr  error
	ev     time.Duration
	sv     time.Duration
	key    vcache.Key
	probed bool
	hit    bool
}

// txVerdict is one transaction's worker-side result. ran is false
// for a transaction the pool never reached (cancelled past an earlier
// failure); a Preverified's storage is zeroed on every reset, so a
// stale verdict from recycled storage can never read as run.
type txVerdict struct {
	ran      bool
	coinbase bool // a block's non-first coinbase, or a standalone one submitted for admission
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
// validation into tv, whose inputs slice already has one zeroed entry
// per body: consistency binding, sighash, and per-input EV + SV,
// stopping at the first input that fails either — the reduce never
// reads past it, so the rest would be work a hostile transaction
// makes us do for nothing. It touches only immutable chain state
// (headers), the verified-proof cache, the transaction's own proof
// bytes and tv, so any number of verifyTx calls on distinct verdicts
// may run concurrently.
//
// verifyTx only reads the cache: each input's key and probe outcome go
// into its verdict, and the caller writes once the reduce has decided
// (ValidateTxsBatch inserts a validated transaction's missed keys,
// reduceAndConnect retires a committed block's hit ones). untimed
// selects transaction admission, which reports no Breakdown: no phase
// is timed, since the clock reads would be its only cost beyond the
// checks themselves.
func (v *EBVValidator) verifyTx(tx *txmodel.EBVTx, tv *txVerdict, untimed bool) {
	tv.ran = true
	var w stopwatch // off when untimed
	if !untimed {
		w = newStopwatch()
	}
	if tx.Tidy.IsCoinbase() {
		tv.coinbase = true
		w.lap(&tv.other)
		return
	}
	if err := tx.Consistent(); err != nil {
		tv.consErr = err
		w.lap(&tv.other)
		return
	}
	sigHash := tx.SigHash()
	w.lap(&tv.other)
	for bi := range tx.Bodies {
		iv := &tv.inputs[bi]
		body := &tx.Bodies[bi]
		// Verified-proof cache: a hit stands in for a clean EV fold and
		// script execution; the reduce still runs UV and every other
		// live-state check. A true hit additionally requires the
		// relative index in range: an out-of-range index can never have
		// been inserted, and EV owns that error message.
		iv.key, iv.probed = v.cacheKey(body, sigHash)
		if iv.probed {
			iv.hit = v.vcache.Contains(iv.key)
			if iv.hit {
				iv.out, iv.hit = body.SpentOutput()
			}
			if iv.hit {
				w.lap(&iv.ev)
				tv.cacheHits++
				continue
			}
			tv.cacheMisses++
		}
		out, err := v.evInput(body)
		w.lap(&iv.ev)
		if err != nil {
			iv.evErr = err
			return
		}
		iv.out = out
		iv.svErr = v.engine.Execute(body.UnlockScript, out.LockScript, sigHash)
		w.lap(&iv.sv)
		if iv.svErr != nil {
			return
		}
	}
}

// Preverified carries stage A's output for a run of transactions — a
// block's, or an admission batch: one proof-verification verdict per
// transaction, ready for an ordered reduce, plus the Breakdown the
// stages accumulate. A Preverified is consumed exactly once. The
// verdicts' input entries share one slab, and ConnectBlockIn and
// ValidateTxsBatch recycle the whole value through preverifiedPool.
type Preverified struct {
	verdicts []txVerdict    // one per transaction; a block's [0], the coinbase, never runs
	inputs   []inputVerdict // backing slab of every verdict's inputs
	bd       Breakdown
}

// preverifiedPool recycles the verdict storage, so a warm connect or
// admission batch allocates no per-transaction or per-input verdicts.
var preverifiedPool = sync.Pool{New: func() any { return new(Preverified) }}

// reset sizes pv's storage for txs and zeroes it — every ran flag
// false, every input verdict empty — then carves each transaction's
// inputs out of the slab. The Breakdown restarts with the transaction
// and input counts.
func (pv *Preverified) reset(txs []*txmodel.EBVTx) {
	n := 0
	for _, tx := range txs {
		n += len(tx.Bodies)
	}
	pv.bd = Breakdown{Txs: len(txs), Inputs: n}
	pv.verdicts = zeroed(pv.verdicts, len(txs))
	pv.inputs = zeroed(pv.inputs, n)
	off := 0
	for ti, tx := range txs {
		end := off + len(tx.Bodies)
		pv.verdicts[ti].inputs = pv.inputs[off:end:end]
		off = end
	}
}

// release drops pv's references into its transactions (spent outputs,
// errors) and returns it to the pool.
func (pv *Preverified) release() {
	clear(pv.verdicts)
	clear(pv.inputs)
	preverifiedPool.Put(pv)
}

// zeroed returns s resized to n zero elements, reusing its backing
// array when large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Breakdown exposes the work recorded so far — pipeline drivers report
// it for blocks whose stage A failed and that never reach stage B.
func (p *Preverified) Breakdown() *Breakdown { return &p.bd }

// Preverify runs stage A for one block: the structure check and the
// proof-verification fan-out — consistency binding, sighash, per-input
// EV Merkle folds and SV script execution, all verified-proof-cache
// aware — on up to workers goroutines. hs, when non-nil, replaces the
// validator's own header view; a pipeline passes an overlay that
// already includes the headers of preverified-but-uncommitted
// predecessors, which is what lets block N+K verify before block N
// commits. Nothing here reads or writes the status database, so any
// number of Preverify calls may run while earlier blocks connect. The
// live-state checks — UV, duplicate spends, maturity, value
// conservation, the commit — happen in ConnectPreverified, in height
// order.
func (v *EBVValidator) Preverify(b *blockmodel.EBVBlock, hs HeaderSource, workers int) (*Preverified, error) {
	sv := v
	if hs != nil {
		c := *v // shallow copy: swap only the header view
		c.headers = hs
		sv = &c
	}
	pv := preverifiedPool.Get().(*Preverified)
	pv.reset(b.Txs)
	bd := &pv.bd
	bd.Outputs = b.TotalOutputs()
	w := newStopwatch()
	if err := sv.checkStructure(b); err != nil {
		w.lap(&bd.Other)
		return pv, err
	}
	w.lap(&bd.Other)

	// Fan out: one task per non-coinbase transaction. The coinbase is
	// covered by structure + subsidy.
	if len(b.Txs) > 1 {
		var poolWall time.Duration
		pw := newStopwatch()
		runWorkers(workers, len(b.Txs)-1, func(i int) bool {
			tv := &pv.verdicts[i+1]
			sv.verifyTx(b.Txs[i+1], tv, false)
			return tv.ok()
		})
		pw.lap(&poolWall)
		chargePool(bd, pv.verdicts, poolWall)
	}
	return pv, nil
}

// ConnectPreverified runs stage B for a block whose proofs Preverify
// already checked: it re-verifies the linkage against the committed
// tip (stage A may have verified against speculative predecessors
// that never connected), then performs the sequential reduce and the
// status-database commit. Acceptance, rejection, and the reported
// error are bit-for-bit identical to ConnectBlock on the same state.
// The returned Breakdown aggregates both stages. s is an optional
// ingest scratch for the reduce's spend/probe/dedup buffers (see
// ConnectBlockIn); pipeline drivers pass the scratch the block was
// decoded with.
func (v *EBVValidator) ConnectPreverified(b *blockmodel.EBVBlock, pv *Preverified, s *ingest.Scratch) (*Breakdown, error) {
	bd := &pv.bd
	w := newStopwatch()
	if err := v.checkLink(b); err != nil {
		w.lap(&bd.Other)
		return bd, err
	}
	w.lap(&bd.Other)
	return bd, v.reduceAndConnect(b, pv, s)
}

// reduceAndConnect is the stage B body: one batched UV probe over the
// block's spends, the ordered reduce (reduceBlock), and — only if it
// passes — the bit-vector commit. A successful commit retires the
// cache keys its inputs hit: each names a proof whose output the block
// has just spent, so it could hit again only if a reorg reconnected
// the same transaction, which then misses and runs the full checks. A
// block that fails the reduce or the commit retires nothing.
func (v *EBVValidator) reduceAndConnect(b *blockmodel.EBVBlock, pv *Preverified, s *ingest.Scratch) error {
	bd := &pv.bd
	uv := v.probeUV(collectSpends(b, s), bd, s)
	if err := v.reduceBlock(b, pv, &uv, s); err != nil {
		return err
	}
	// Every input passed, so the collected spends are exactly the
	// spends to apply.
	w := newStopwatch()
	err := v.status.Connect(b.Header.Height, bd.Outputs, uv.spends)
	if err == nil && bd.CacheHits > 0 {
		for i := range pv.inputs {
			if pv.inputs[i].hit {
				v.vcache.Remove(pv.inputs[i].key)
			}
		}
	}
	w.lap(&bd.Other)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBlock, err)
	}
	return nil
}

// reduceBlock is the ordered reduce over a block's worker verdicts, in
// a one-loop validator's exact check order — per input duplicate
// spend, EV, UV, SV, maturity and input sum; per transaction value
// conservation; then the subsidy — so the first failure and its
// message do not depend on the worker count. uv holds the block's
// batched UV verdicts in collectSpends order; a nil uv skips Unspent
// Validation (VerifyWithoutUV). Worker-failed transactions cancel the
// pool past their index, so an unrun verdict can only sit beyond the
// index the scan stops at; the guard below is belt and braces.
func (v *EBVValidator) reduceBlock(b *blockmodel.EBVBlock, pv *Preverified, uv *uvProbes, s *ingest.Scratch) error {
	bd := &pv.bd
	idx := 0
	seen := scratchSeen(s, bd.Inputs)
	var totalFees uint64
	w := newStopwatch()

	for ti, tx := range b.Txs {
		if ti == 0 {
			continue
		}
		tv := &pv.verdicts[ti]
		if !tv.ran {
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
			sp := statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()}
			if _, dup := seen[sp]; dup {
				w.lap(&bd.UV)
				return fmt.Errorf("%w: height %d position %d", ErrDuplicateSpend, sp.Height, sp.Pos)
			}
			seen[sp] = struct{}{}
			w.lap(&bd.UV)

			// EV ran on the workers; the UV verdict applies here, in
			// EV-then-UV-then-SV order.
			if iv.evErr != nil {
				return fmt.Errorf("tx %d input %d: %w", ti, bi, iv.evErr)
			}
			if uv != nil {
				if err := uv.check(idx); err != nil {
					return fmt.Errorf("tx %d input %d: %w", ti, bi, err)
				}
			}
			if iv.svErr != nil {
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
	return nil
}

// VerifyWithoutUV is the headers-only verdict on b — the full
// validator's verdict minus Unspent Validation, which is what a
// Dietcoin-style light client can check without the bit-vector set:
// structure, linkage to the header below it, proof of work, stake
// positions, the Merkle root, per-input EV (against hs) and SV,
// duplicate spends within b, maturity, value conservation and the
// subsidy, with ConnectBlock's error text. Proof heights resolve
// against hs truncated below b's height, so a proof can only name a
// block older than b. Nothing is cached and nothing is committed.
func VerifyWithoutUV(b *blockmodel.EBVBlock, hs HeaderSource, eng *script.Engine) error {
	v := &EBVValidator{engine: eng, headers: headersBelow{hs, b.Header.Height}}
	pv, err := v.Preverify(b, nil, 1)
	if err == nil {
		err = v.reduceBlock(b, pv, nil, nil)
	}
	pv.release()
	return err
}

// headersBelow is the view of hs a block at height sees: every header
// strictly below it.
type headersBelow struct {
	hs     HeaderSource
	height uint64
}

func (h headersBelow) Header(height uint64) (blockmodel.Header, bool) {
	if height >= h.height {
		return blockmodel.Header{}, false
	}
	return h.hs.Header(height)
}

func (h headersBelow) TipHeight() (uint64, bool) {
	tip, ok := h.hs.TipHeight()
	if !ok || h.height == 0 {
		return 0, false
	}
	return min(tip, h.height-1), true
}

// chargePool distributes the fan-out phase's wall-clock duration
// across the Breakdown's EV, SV and Other counters in proportion to
// the summed per-worker time each phase consumed. Summed worker time
// overstates elapsed time by up to the worker count; wall clock is
// what the paper's figures plot. Unrun verdicts are zero and add
// nothing.
func chargePool(bd *Breakdown, verdicts []txVerdict, wall time.Duration) {
	var sEV, sSV, sOther time.Duration
	for i := range verdicts {
		tv := &verdicts[i]
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
