package admission

import (
	"fmt"
	"runtime"

	"ebv/internal/core"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/mempool"
	"ebv/internal/txmodel"
)

// Submission is one transaction moving through the pipeline.
type Submission interface {
	// ID is the pool identity (for EBV: the tidy leaf hash with the
	// stake position zeroed), available from decode time for the
	// intake duplicate check.
	ID() hashx.Hash
}

// Backend is what the service verifies and commits against.
// EBVBackend batches verification across the whole slice.
type Backend interface {
	// Decode checks the syntax of wire bytes and returns their
	// submission. The submission may keep raw until its verdict is
	// delivered (see Service.SubmitAsync); what the pool keeps it
	// copies at commit.
	Decode(raw []byte) (Submission, error)
	// Contains reports whether id is already pooled, without blocking
	// on the pool lock (intake fast path; may lag by one commit).
	Contains(id hashx.Hash) bool
	// CommitBatch verifies subs and commits survivors to the pool in
	// slice order. errs[i] answers subs[i]; nil means admitted.
	CommitBatch(subs []Submission, workers int) []error
}

// ebvSub is an EBV submission: the pool-form encoding and its id.
// Nothing decoded outlives the intake check.
type ebvSub struct {
	raw []byte
	id  hashx.Hash
}

func (s *ebvSub) ID() hashx.Hash { return s.id }

// EBVBackend runs batched admission for an EBV node: one
// core.ValidateTxsBatch call per batch (EV+SV across the worker pool,
// one batched UV probe), then one mempool.Pool.CommitBatch for
// the survivors.
//
// Memory: a submission holds only its wire bytes and id. Intake
// decodes into a pooled ingest scratch for the syntax check and the
// id; the collector borrow-decodes each batch into one scratch for
// its verdicts; the pool copies each survivor's bytes once, on admit.
type EBVBackend struct {
	Pool      *mempool.Pool
	Validator *core.EBVValidator
}

// Decode checks raw with a borrowed decode into pooled scratch and
// computes the pool id up front, off the collector goroutine. The
// submission keeps raw; a transaction that carries a stake position
// is re-encoded once here in its pool form (StakePos 0), so every
// later stage sees the bytes the pool stores.
func (b *EBVBackend) Decode(raw []byte) (Submission, error) {
	s := ingest.Get()
	defer s.Release()
	tx, err := s.DecodeEBVTx(raw)
	if err != nil {
		return nil, err
	}
	if tx.Tidy.StakePos != 0 {
		// The miner assigns the stake position; the decode is fresh,
		// so no leaf memo is set yet.
		tx.Tidy.StakePos = 0
		raw = tx.Encode(make([]byte, 0, tx.EncodedSize()))
	}
	return &ebvSub{raw: raw, id: tx.Tidy.LeafHash()}, nil
}

// Contains probes the pool's id index under its read lock.
func (b *EBVBackend) Contains(id hashx.Hash) bool { return b.Pool.Contains(id) }

// CommitBatch validates the whole batch at once and commits survivors
// in order. Verdicts match sequential Pool.Add: ValidateTxsBatch
// reports exactly what per-tx ValidateTx would, and the pool-side
// checks run through the same addLocked in the same order.
func (b *EBVBackend) CommitBatch(subs []Submission, workers int) []error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The batch's decodes share one scratch arena and borrow the
	// submissions' bytes; they are dropped when the pool has copied
	// the survivors.
	scratch := ingest.Get()
	defer scratch.Release()
	errs := make([]error, len(subs))
	txs := make([]*txmodel.EBVTx, 0, len(subs))
	slots := make([]int, 0, len(subs))
	for i := range subs {
		tx, err := scratch.DecodeEBVTx(subs[i].(*ebvSub).raw)
		if err != nil {
			// Intake decoded these bytes: the submitter changed them
			// before its verdict.
			errs[i] = fmt.Errorf("%w: %v", ErrMalformed, err)
			continue
		}
		txs = append(txs, tx)
		slots = append(slots, i)
	}
	verdicts := b.Validator.ValidateTxsBatch(txs, workers, scratch)

	cands := make([]mempool.Candidate, 0, len(txs))
	admit := make([]int, 0, len(txs)) // subs index of each candidate
	for j, err := range verdicts {
		i := slots[j]
		if err != nil {
			errs[i] = err
			continue
		}
		sub := subs[i].(*ebvSub)
		cands = append(cands, mempool.Candidate{Tx: txs[j], Raw: sub.raw, ID: sub.id})
		admit = append(admit, i)
	}
	for k, err := range b.Pool.CommitBatch(cands) {
		errs[admit[k]] = err
	}
	return errs
}
