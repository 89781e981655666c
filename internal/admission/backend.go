package admission

import (
	"runtime"

	"ebv/internal/core"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/mempool"
	"ebv/internal/txmodel"
)

// Submission is one decoded transaction moving through the pipeline.
type Submission interface {
	// ID is the pool identity (for EBV: the tidy leaf hash with the
	// stake position zeroed), available from decode time for the
	// intake duplicate check.
	ID() hashx.Hash
}

// Backend is what the service verifies and commits against.
// EBVBackend batches verification across the whole slice.
type Backend interface {
	// Decode parses wire bytes into a submission. The returned value
	// owns its memory — entries outlive the connection buffer they
	// arrived in.
	Decode(raw []byte) (Submission, error)
	// Contains reports whether id is already pooled, without blocking
	// on the pool lock (intake fast path; may lag by one commit).
	Contains(id hashx.Hash) bool
	// CommitBatch verifies subs and commits survivors to the pool in
	// slice order. errs[i] answers subs[i]; nil means admitted.
	CommitBatch(subs []Submission, workers int) []error
}

// ebvSub is an EBV submission.
type ebvSub struct {
	tx *txmodel.EBVTx
	id hashx.Hash
}

func (s *ebvSub) ID() hashx.Hash { return s.id }

// EBVBackend runs batched admission for an EBV node: one
// core.ValidateTxsBatch call per batch (EV+SV across the worker pool,
// one batched UV probe), then one mempool.Pool.CommitBatch for
// the survivors.
type EBVBackend struct {
	Pool      *mempool.Pool
	Validator *core.EBVValidator
}

// Decode copy-decodes raw (pool entries are long-lived) and computes
// the pool id up front, off the collector goroutine.
func (b *EBVBackend) Decode(raw []byte) (Submission, error) {
	tx, err := txmodel.DecodeEBVTx(raw)
	if err != nil {
		return nil, err
	}
	// Pool identity is the pre-packaging form (see mempool.newEntry —
	// which repeats this, idempotently, for entries from other paths).
	tx.Tidy.StakePos = 0
	tx.Tidy.Invalidate()
	return &ebvSub{tx: tx, id: tx.Tidy.LeafHash()}, nil
}

// Contains probes the pool's lock-free id mirror.
func (b *EBVBackend) Contains(id hashx.Hash) bool { return b.Pool.Contains(id) }

// CommitBatch validates the whole batch at once and commits survivors
// in order. Verdicts match sequential Pool.Add: ValidateTxsBatch
// reports exactly what per-tx ValidateTx would, and the pool-side
// checks run through the same addLocked in the same order.
func (b *EBVBackend) CommitBatch(subs []Submission, workers int) []error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	txs := make([]*txmodel.EBVTx, len(subs))
	for i := range subs {
		txs[i] = subs[i].(*ebvSub).tx
	}
	scratch := ingest.Get()
	errs := b.Validator.ValidateTxsBatch(txs, workers, scratch)
	scratch.Release()

	valid := make([]*txmodel.EBVTx, 0, len(txs))
	slots := make([]int, 0, len(txs))
	for i, err := range errs {
		if err == nil {
			valid = append(valid, txs[i])
			slots = append(slots, i)
		}
	}
	_, poolErrs := b.Pool.CommitBatch(valid)
	for j, i := range slots {
		errs[i] = poolErrs[j]
	}
	return errs
}
