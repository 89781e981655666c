package core

import (
	"encoding/binary"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/merkle"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// EBVValidator validates EBV blocks with the efficient mechanism:
// header-backed Existence Validation, bit-vector Unspent Validation,
// and proof-carried Script Validation. Its only state is the header
// chain and the in-memory bit-vector set — nothing on the validation
// path touches disk.
type EBVValidator struct {
	status         *statusdb.DB
	engine         *script.Engine
	headers        HeaderSource
	workers        int
	vcache         *vcache.Cache
	blockOutputsFn BlockOutputsFunc
}

// EBVOption configures an EBVValidator.
type EBVOption func(*EBVValidator)

// WithParallelValidation runs the full proof-verification pipeline on
// up to workers goroutines: every transaction's consistency binding,
// sighash, and per-input EV (leaf hash + Merkle fold against the
// stored header) and SV run concurrently, while UV, duplicate-spend
// detection, maturity, and value conservation run in a sequential
// reduce over the worker verdicts. Acceptance, rejection, and the
// reported error do not depend on the worker count or on scheduling
// (see ConnectBlockIn). workers <= 1 runs the same two stages inline
// on the calling goroutine.
func WithParallelValidation(workers int) EBVOption {
	return func(v *EBVValidator) { v.workers = workers }
}

// WithVerificationCache installs a verified-proof cache: inputs whose
// cache key — a digest binding the body bytes (MBr, Us, ELs, height,
// relative index), the transaction sighash, and the stored header at
// the proof's height — was recorded by an earlier successful check
// skip the EV Merkle fold and the SV script execution. UV, duplicate-
// spend detection, maturity, and value conservation always run live:
// they depend on mutable chain state a past verdict cannot speak for.
// Admission writes and commit retires. ValidateTxsBatch (so mempool
// admission via ValidateTx) inserts the keys of the transactions it
// admits, which pre-warms block validation on the relay path. Every
// block-connect route probes the cache and never inserts; once a block
// commits, the keys its inputs hit are removed: those proofs spend
// now-spent outputs, so their keys could hit again only when a reorg
// reconnects the same transaction, which then misses and runs the full
// checks. Bitcoin Core's ConnectBlock likewise never writes its script
// and signature caches, and erases each entry it hits (the erase
// argument of its cache lookups); here the erase waits for the commit,
// so a block that fails leaves the cache as it found it.
func WithVerificationCache(c *vcache.Cache) EBVOption {
	return func(v *EBVValidator) { v.vcache = c }
}

// NewEBVValidator wires the EBV validator to its status database,
// script engine, and header chain.
func NewEBVValidator(status *statusdb.DB, engine *script.Engine, headers HeaderSource, opts ...EBVOption) *EBVValidator {
	v := &EBVValidator{status: status, engine: engine, headers: headers}
	for _, o := range opts {
		o(v)
	}
	return v
}

// Status exposes the underlying bit-vector set (memory reporting).
func (v *EBVValidator) Status() *statusdb.DB { return v.status }

// Cache exposes the verified-proof cache, nil when disabled.
func (v *EBVValidator) Cache() *vcache.Cache { return v.vcache }

// cacheKey derives the verified-proof cache key for one input: a
// digest over the body hash (which covers the MBr branch, unlock
// script, ELs bytes, height and relative index), the transaction
// sighash, and the stored header's Merkle root plus the height itself.
// Binding the stored root means a reorg that replaces the header at
// the proof's height silently invalidates every entry minted against
// the old header. ok is false when the cache is disabled or no header
// is stored at the body's height — the miss path then reports the
// missing header exactly as the uncached validator would.
func (v *EBVValidator) cacheKey(body *txmodel.InputBody, sigHash hashx.Hash) (vcache.Key, bool) {
	if v.vcache == nil {
		return vcache.Key{}, false
	}
	hdr, ok := v.headers.Header(body.Height)
	if !ok {
		return vcache.Key{}, false
	}
	bodyHash := body.Hash()
	var buf [3*hashx.Size + 8]byte
	copy(buf[0:hashx.Size], bodyHash[:])
	copy(buf[hashx.Size:2*hashx.Size], sigHash[:])
	copy(buf[2*hashx.Size:3*hashx.Size], hdr.MerkleRoot[:])
	binary.LittleEndian.PutUint64(buf[3*hashx.Size:], body.Height)
	return vcache.Key(hashx.Sum(buf[:])), true
}

// evInput performs Existence Validation for one input: fold the branch
// from the ELs leaf, compare against the stored header of the named
// height, and extract the spent output. It reads only immutable chain
// state, so verifyTx calls it from worker goroutines.
func (v *EBVValidator) evInput(body *txmodel.InputBody) (*txmodel.TxOut, error) {
	hdr, ok := v.headers.Header(body.Height)
	if !ok {
		return nil, fmt.Errorf("%w: no header at height %d", ErrMissingOutput, body.Height)
	}
	leaf := body.PrevTx.LeafHash()
	if !merkle.Verify(leaf, body.Branch, hdr.MerkleRoot) {
		return nil, fmt.Errorf("%w: merkle branch does not reach root at height %d", ErrMissingOutput, body.Height)
	}
	out, ok := body.SpentOutput()
	if !ok {
		return nil, fmt.Errorf("%w: relative index %d out of range", ErrBadProof, body.RelIndex)
	}
	return out, nil
}

// uvProbes holds the batched Unspent Validation answers for one block
// (in collectSpends order) or one admission batch (in submission
// order). Nothing mutates the status database between the probes and
// the reduce that reads them, so probing everything up front in one
// batch (under one read lock) returns exactly what per-input IsUnspent
// calls at scan time would; check surfaces each verdict as a UV error,
// preserving error selection input for input.
type uvProbes struct {
	spends []statusdb.Spend
	res    []statusdb.ProbeResult
}

// scratchSpends returns the spend buffer for one block's scan — from
// the ingest scratch when available, freshly allocated otherwise.
func scratchSpends(s *ingest.Scratch, n int) []statusdb.Spend {
	if s != nil {
		return s.Spends(n)
	}
	return make([]statusdb.Spend, 0, n)
}

// scratchSeen returns the duplicate-spend map for one block's scan.
func scratchSeen(s *ingest.Scratch, n int) map[statusdb.Spend]struct{} {
	if s != nil {
		return s.Seen()
	}
	return make(map[statusdb.Spend]struct{}, n)
}

// collectSpends flattens the block's spends in validation scan order:
// every non-coinbase transaction's bodies, in block order. The
// coinbase is skipped — its bodies (it should have none) are never
// examined by the reduce either.
func collectSpends(b *blockmodel.EBVBlock, s *ingest.Scratch) []statusdb.Spend {
	spends := scratchSpends(s, b.TotalInputs())
	for ti, tx := range b.Txs {
		if ti == 0 {
			continue
		}
		for bi := range tx.Bodies {
			body := &tx.Bodies[bi]
			spends = append(spends, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
		}
	}
	return spends
}

// probeUV runs the block's batched Unspent Validation — one batch
// for the whole block instead of one lock round trip per input —
// charging the probe pass to the UV counter. With a scratch, the
// result buffer is recycled across blocks.
func (v *EBVValidator) probeUV(spends []statusdb.Spend, bd *Breakdown, s *ingest.Scratch) uvProbes {
	w := newStopwatch()
	var res []statusdb.ProbeResult
	if s != nil {
		res = v.status.IsUnspentBatchInto(spends, s.Probes(len(spends)))
	} else {
		res = v.status.IsUnspentBatch(spends)
	}
	w.lap(&bd.UV)
	return uvProbes{spends: spends, res: res}
}

// check returns input i's UV verdict: nil for an unspent output,
// ErrSpentOutput for a cleared bit, ErrBadProof for a position the
// status database does not hold.
func (p *uvProbes) check(i int) error {
	r := p.res[i]
	if r.Err != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, r.Err)
	}
	if !r.Unspent {
		return fmt.Errorf("%w: height %d position %d", ErrSpentOutput, p.spends[i].Height, p.spends[i].Pos)
	}
	return nil
}

// ConnectBlock fully validates b as the next block and applies its
// effect to the bit-vector set. On failure the set is untouched.
func (v *EBVValidator) ConnectBlock(b *blockmodel.EBVBlock) (*Breakdown, error) {
	return v.ConnectBlockIn(b, nil)
}

// ConnectBlockIn is ConnectBlock with an optional ingest scratch: when
// s is non-nil, the spend, probe-result, and duplicate-detection
// buffers are recycled from it instead of heap-allocated, which is
// what makes a warm (cache-hitting) connect run allocation-free. The
// scratch must not serve another in-flight block concurrently; b may
// be a block previously decoded with the same scratch.
//
// It is stage A and stage B back to back on the caller's state:
// Preverify on v.workers goroutines (inline on this one at workers <=
// 1), then the ordered reduce and the commit. The per-block verdict
// storage returns to a pool afterwards; the returned Breakdown is a
// copy that does not alias it. Under concurrency the Breakdown stays
// honest: the fan-out phase is charged at its wall-clock duration,
// apportioned across EV, SV and Other in proportion to the summed
// worker time each phase consumed (chargePool), so Total() still
// approximates real elapsed time instead of summed worker time.
func (v *EBVValidator) ConnectBlockIn(b *blockmodel.EBVBlock, s *ingest.Scratch) (*Breakdown, error) {
	pv, err := v.Preverify(b, nil, v.workers)
	if err == nil {
		err = v.reduceAndConnect(b, pv, s)
	}
	bd := pv.bd
	pv.release()
	return &bd, err
}

// checkLink verifies b extends the header source's tip. It is part of
// checkStructure, and ConnectPreverified re-runs it alone against the
// committed chain — the header view a Preverify saw may have included
// speculative, since-discarded predecessors.
func (v *EBVValidator) checkLink(b *blockmodel.EBVBlock) error {
	tip, hasTip := v.headers.TipHeight()
	switch {
	case !hasTip:
		if b.Header.Height != 0 {
			return fmt.Errorf("%w: genesis must have height 0", ErrBadLink)
		}
	case b.Header.Height != tip+1:
		return fmt.Errorf("%w: height %d after tip %d", ErrBadLink, b.Header.Height, tip)
	default:
		prev, _ := v.headers.Header(tip)
		if b.Header.PrevBlock != prev.Hash() {
			return fmt.Errorf("%w: prev hash mismatch", ErrBadLink)
		}
	}
	return nil
}

func (v *EBVValidator) checkStructure(b *blockmodel.EBVBlock) error {
	if err := v.checkLink(b); err != nil {
		return err
	}
	if len(b.Txs) == 0 || !b.Txs[0].Tidy.IsCoinbase() {
		return ErrNoCoinbase
	}
	if b.TotalOutputs() > blockmodel.MaxBlockOutputs {
		return fmt.Errorf("%w: too many outputs", ErrInvalidBlock)
	}
	if !b.Header.MeetsTarget() {
		return fmt.Errorf("%w: proof of work", ErrInvalidBlock)
	}
	if err := b.CheckStakePositions(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStakePos, err)
	}
	if merkle.Root(b.TxLeaves()) != b.Header.MerkleRoot {
		return ErrBadMerkleRoot
	}
	return nil
}

// DisconnectBlock reverses the tip block during a reorg: the block's
// outputs leave the status database and the bits its inputs cleared
// are restored. b must be the block at the validator's tip (the caller
// truncates its chain store afterwards). EBV needs no undo data — the
// block's own input bodies carry everything required to restore the
// spent bits, one more payoff of proof-carrying inputs.
func (v *EBVValidator) DisconnectBlock(b *blockmodel.EBVBlock) error {
	tip, ok := v.headers.TipHeight()
	if !ok || b.Header.Height != tip {
		return fmt.Errorf("%w: disconnect height %d at tip %d", ErrBadLink, b.Header.Height, tip)
	}
	hdr, _ := v.headers.Header(tip)
	if hdr.Hash() != b.Header.Hash() {
		return fmt.Errorf("%w: block is not the stored tip", ErrBadLink)
	}
	restores := make([]statusdb.Restore, 0, b.TotalInputs())
	for _, tx := range b.Txs {
		for i := range tx.Bodies {
			body := &tx.Bodies[i]
			// NOutputs recreates vectors that were deleted as fully
			// spent. When the vector is still live its own length is
			// authoritative; only a deleted (fully spent) vector needs
			// the node's resolver (SetBlockOutputsFunc), and silently
			// guessing 0 there would corrupt the recreated vector — so
			// a missing resolver is a hard error in that case.
			n, live := v.status.VectorLen(body.Height)
			if !live {
				if v.blockOutputsFn == nil {
					return fmt.Errorf("%w: fully spent vector at height %d", ErrNoBlockOutputs, body.Height)
				}
				n = v.blockOutputsFn(body.Height)
				if n <= 0 {
					return fmt.Errorf("%w: resolver returned %d outputs for height %d", ErrNoBlockOutputs, n, body.Height)
				}
			}
			restores = append(restores, statusdb.Restore{
				Height:   body.Height,
				Pos:      body.AbsPosition(),
				NOutputs: n,
			})
		}
	}
	return v.status.Disconnect(b.Header.Height, restores)
}

// BlockOutputsFunc resolves the total output count of a stored block,
// needed to recreate fully spent vectors during disconnects.
type BlockOutputsFunc func(height uint64) int

// SetBlockOutputsFunc installs the resolver (nodes wire it to their
// chain store).
func (v *EBVValidator) SetBlockOutputsFunc(f BlockOutputsFunc) { v.blockOutputsFn = f }
