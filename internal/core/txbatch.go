package core

import (
	"fmt"
	"slices"

	"ebv/internal/ingest"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
)

// This file implements transaction admission: ValidateTxsBatch, the
// verification core of the admission service (internal/admission),
// and ValidateTx, a batch of one. It runs block connect's stages on
// independently submitted transactions: verifyTx on up to workers
// goroutines, one task per transaction; one batched status-database
// probe for the Unspent Validation of every input of every
// transaction; then an ordered reduce per transaction that does not
// commit.

// ValidateTxsBatch checks len(txs) standalone transactions against the
// current chain state on up to workers goroutines, with all Unspent
// Validation probes batched into one status-database round trip.
// errs[i] is txs[i]'s verdict, independent of the batch it rode in and
// of the worker count: the first failure in the order standalone
// coinbase, proof consistency, then per input duplicate spend, EV, UV,
// SV and coinbase maturity at the next height, then value
// conservation. Every transaction gets a verdict (no cross-transaction
// early exit). Nothing may mutate the status database between the
// probe and the caller consuming the verdicts; the admission service
// holds that by construction (verdicts are committed to the pool
// before the next block connect revalidates).
//
// A cache miss whose EV and SV pass inserts its key into the
// verified-proof cache, even when the input's UV verdict, which the
// workers run ahead of, comes back negative. That is sound (a cache
// entry asserts exactly EV+SV, never unspentness: UV always runs live)
// and verdict-neutral (a hit and a miss report the same error when EV
// and SV pass).
//
// s, when non-nil, supplies the spend and probe-result buffers; it
// must not serve another batch or block concurrently.
func (v *EBVValidator) ValidateTxsBatch(txs []*txmodel.EBVTx, workers int, s *ingest.Scratch) []error {
	errs := make([]error, len(txs))
	if len(txs) == 0 {
		return errs
	}

	// Maturity is judged at the earliest height the batch could be
	// mined; within one batch no block connects, so one read serves
	// all.
	nextHeight := uint64(0)
	if tip, ok := v.headers.TipHeight(); ok {
		nextHeight = tip + 1
	}

	// The verify stage. The callback always returns true: unlike block
	// validation, one bad transaction must not cancel verdicts for the
	// rest — every submitter gets an answer.
	pv := preverifiedPool.Get().(*Preverified)
	pv.reset(txs)
	runWorkers(workers, len(txs), func(i int) bool {
		v.verifyTx(txs[i], &pv.verdicts[i], true)
		return true
	})

	// One batched UV probe over every input of every transaction that
	// reached its input scan, in submission order.
	spends := scratchSpends(s, pv.bd.Inputs)
	for i, tx := range txs {
		if pv.verdicts[i].scanned() {
			for bi := range tx.Bodies {
				body := &tx.Bodies[bi]
				spends = append(spends, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
			}
		}
	}
	uv := v.probeUV(spends, &pv.bd, s)

	idx := 0
	for i, tx := range txs {
		tv := &pv.verdicts[i]
		errs[i] = reduceTx(tx, tv, &uv, idx, nextHeight)
		if tv.scanned() {
			idx += len(tx.Bodies)
		}
	}
	pv.release()
	return errs
}

// ValidateTx checks one standalone EBV transaction against the current
// chain state (mempool admission): a batch of one, on the calling
// goroutine. It does not mutate the status database.
func (v *EBVValidator) ValidateTx(tx *txmodel.EBVTx) error {
	return v.ValidateTxsBatch([]*txmodel.EBVTx{tx}, 1, nil)[0]
}

// scanned reports whether verifyTx reached tv's input scan: the
// transaction is no coinbase and its proofs bind to it.
func (tv *txVerdict) scanned() bool { return !tv.coinbase && tv.consErr == nil }

// reduceTx is the ordered reduce for one admitted transaction, in
// ValidateTxsBatch's check order. uv holds the transaction's UV
// verdicts from index idx on; next is the height maturity is judged
// at.
func reduceTx(tx *txmodel.EBVTx, tv *txVerdict, uv *uvProbes, idx int, next uint64) error {
	if tv.coinbase {
		return ErrStandaloneCoinbase
	}
	if tv.consErr != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, tv.consErr)
	}
	// Duplicate-spend detection: a linear scan over the spends already
	// claimed beats a map for the few inputs of real submissions; above
	// eight, a map keeps MaxTxInputs inputs sub-quadratic.
	spends := uv.spends[idx : idx+len(tx.Bodies)]
	var seen map[statusdb.Spend]struct{}
	if len(spends) > 8 {
		seen = make(map[statusdb.Spend]struct{}, len(spends))
	}
	var inSum uint64
	for bi, sp := range spends {
		dup := false
		if seen != nil {
			_, dup = seen[sp]
			seen[sp] = struct{}{}
		} else {
			dup = slices.Contains(spends[:bi], sp)
		}
		if dup {
			return fmt.Errorf("%w: input %d", ErrDuplicateSpend, bi)
		}
		iv := &tv.inputs[bi]
		if iv.evErr != nil {
			return fmt.Errorf("input %d: %w", bi, iv.evErr)
		}
		if err := uv.check(idx + bi); err != nil {
			return fmt.Errorf("input %d: %w", bi, err)
		}
		if iv.svErr != nil {
			return fmt.Errorf("input %d: %w: %v", bi, ErrScriptFailed, iv.svErr)
		}
		body := &tx.Bodies[bi]
		if body.PrevTx.IsCoinbase() && next-body.Height < txmodel.CoinbaseMaturity {
			return fmt.Errorf("%w: input %d", ErrImmature, bi)
		}
		inSum += iv.out.Value
	}
	outSum, ok := tx.OutputSum()
	if !ok {
		return fmt.Errorf("%w: outputs", ErrOverflow)
	}
	if outSum > inSum {
		return fmt.Errorf("%w: spends %d, creates %d", ErrValueImbalance, inSum, outSum)
	}
	return nil
}
