// Package core implements the block validation mechanisms under
// comparison — the paper's primary contribution.
//
// BitcoinValidator is the baseline (paper §II): input checking fetches
// each input's outpoint from the UTXO set (one lookup performing
// Existence Validation and Unspent Validation together), runs Script
// Validation, then updates the set with batched deletes and inserts.
// All database work is timed as DBO, the quantity Figs. 4 and 5
// dissect.
//
// EBVValidator is the paper's mechanism (§IV): Existence Validation
// folds each input's Merkle branch against the locally stored header
// of the named height; Unspent Validation probes one bit of the
// in-memory bit-vector set at the absolute position derived from the
// Merkle-committed stake position; Script Validation runs the
// unlocking script against the locking script carried in the ELs
// proof. No disk is touched on the validation path.
//
// Both validators produce a per-block Breakdown so experiments can
// reproduce the paper's stacked time plots.
package core

import (
	"errors"
	"fmt"
	"time"

	"ebv/internal/blockmodel"
)

// Validation errors. All wrap ErrInvalidBlock.
var (
	ErrInvalidBlock   = errors.New("core: invalid block")
	ErrBadMerkleRoot  = fmt.Errorf("%w: merkle root mismatch", ErrInvalidBlock)
	ErrBadLink        = fmt.Errorf("%w: does not extend current tip", ErrInvalidBlock)
	ErrNoCoinbase     = fmt.Errorf("%w: first transaction is not a coinbase", ErrInvalidBlock)
	ErrExtraCoinbase  = fmt.Errorf("%w: non-first coinbase transaction", ErrInvalidBlock)
	ErrBadSubsidy     = fmt.Errorf("%w: coinbase claims more than subsidy plus fees", ErrInvalidBlock)
	ErrMissingOutput  = fmt.Errorf("%w: input spends nonexistent output", ErrInvalidBlock)
	ErrSpentOutput    = fmt.Errorf("%w: input spends an already-spent output", ErrInvalidBlock)
	ErrScriptFailed   = fmt.Errorf("%w: script validation failed", ErrInvalidBlock)
	ErrValueImbalance = fmt.Errorf("%w: outputs exceed inputs", ErrInvalidBlock)
	ErrImmature       = fmt.Errorf("%w: coinbase output spent before maturity", ErrInvalidBlock)
	ErrDuplicateSpend = fmt.Errorf("%w: output spent twice within the block", ErrInvalidBlock)
	ErrBadProof       = fmt.Errorf("%w: input proof inconsistent", ErrInvalidBlock)
	ErrBadStakePos    = fmt.Errorf("%w: stake positions inconsistent", ErrInvalidBlock)
	ErrOverflow       = fmt.Errorf("%w: value overflow", ErrInvalidBlock)
	// ErrStandaloneCoinbase rejects a coinbase submitted on its own
	// (mempool admission): coinbases exist only inside blocks. A typed
	// sentinel so the admission service can map it to a stable wire
	// code.
	ErrStandaloneCoinbase = fmt.Errorf("%w: standalone coinbase", ErrInvalidBlock)

	// ErrNoBlockOutputs is reported by DisconnectBlock when a fully
	// spent vector must be recreated but no BlockOutputsFunc can supply
	// its output count. It does not wrap ErrInvalidBlock: the block is
	// fine, the validator is misconfigured.
	ErrNoBlockOutputs = errors.New("core: no block-output resolver for fully spent vector")
)

// HeaderSource supplies stored headers by height. chainstore.Store
// implements it.
type HeaderSource interface {
	Header(height uint64) (blockmodel.Header, bool)
	TipHeight() (uint64, bool)
}

// Breakdown records where a block's validation time went, mirroring
// the stacked bars of the paper's figures. For the baseline, DBO
// aggregates Fetch, Delete and Insert; EV and UV are zero because the
// fetch performs both implicitly. For EBV, DBO is zero; EV, UV, SV and
// Other are reported separately (Fig. 16b); the bit-vector update is
// counted under Other, as the paper's "others" absorbs block storage
// work.
type Breakdown struct {
	DBO   time.Duration
	EV    time.Duration
	UV    time.Duration
	SV    time.Duration
	Other time.Duration
	// Inputs, Outputs and Txs describe the block, for the
	// input-count-vs-time comparisons (Figs. 4b and 15).
	Inputs  int
	Outputs int
	Txs     int
	// CacheHits and CacheMisses count verified-proof cache probes for
	// the inputs this Breakdown covers (EBV with WithVerificationCache
	// only; both stay zero when the cache is disabled).
	CacheHits   int
	CacheMisses int
}

// Total returns the total validation time.
func (b *Breakdown) Total() time.Duration {
	return b.DBO + b.EV + b.UV + b.SV + b.Other
}

// Add accumulates o into b (used by IBD-period aggregation).
func (b *Breakdown) Add(o *Breakdown) {
	b.DBO += o.DBO
	b.EV += o.EV
	b.UV += o.UV
	b.SV += o.SV
	b.Other += o.Other
	b.Inputs += o.Inputs
	b.Outputs += o.Outputs
	b.Txs += o.Txs
	b.CacheHits += o.CacheHits
	b.CacheMisses += o.CacheMisses
}

// stopwatch measures consecutive phases: each lap charges the elapsed
// time since the previous lap to one counter. The zero stopwatch is
// off: its laps read no clock and charge nothing.
type stopwatch struct {
	last time.Time
}

func newStopwatch() stopwatch { return stopwatch{last: time.Now()} }

func (w *stopwatch) lap(dst *time.Duration) {
	if w.last.IsZero() {
		return
	}
	now := time.Now()
	*dst += now.Sub(w.last)
	w.last = now
}
