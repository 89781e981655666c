package core

import (
	"bytes"
	"fmt"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/merkle"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// refValidator is the test-only reference model of EBV block
// validation: the paper's three checks (EV, UV, SV) and the bit flip,
// applied input by input in one loop. It has no verified-proof cache,
// no scratch, no batched probes, no workers and no stopwatches — only
// the normative check order and error text. Production's ConnectBlock
// (at every worker count) and Preverify + ConnectPreverified must
// reach exactly its verdicts, error strings included, and exactly its
// status-database state.
type refValidator struct {
	status  *statusdb.DB
	engine  *script.Engine
	headers *memHeaders
}

// refFixture replays the fixture's chain, all but the last block,
// into a fresh reference validator.
func refFixture(t testing.TB, f *fixture) *refValidator {
	t.Helper()
	r := &refValidator{
		status:  statusdb.New(),
		engine:  script.NewEngine(f.gen.Scheme()),
		headers: &memHeaders{},
	}
	for i := 0; i < len(f.ebv)-1; i++ {
		if err := r.connect(f.ebv[i]); err != nil {
			t.Fatalf("reference connect %d: %v", i, err)
		}
		r.headers.hdrs = append(r.headers.hdrs, f.ebv[i].Header)
	}
	return r
}

// connect fully validates b as the next block and, only if every
// check passes, applies it to the bit-vector set.
func (r *refValidator) connect(b *blockmodel.EBVBlock) error {
	// Structure: linkage, coinbase, output bound, proof of work, stake
	// positions, Merkle root.
	tip, hasTip := r.headers.TipHeight()
	switch {
	case !hasTip:
		if b.Header.Height != 0 {
			return fmt.Errorf("%w: genesis must have height 0", ErrBadLink)
		}
	case b.Header.Height != tip+1:
		return fmt.Errorf("%w: height %d after tip %d", ErrBadLink, b.Header.Height, tip)
	default:
		prev, _ := r.headers.Header(tip)
		if b.Header.PrevBlock != prev.Hash() {
			return fmt.Errorf("%w: prev hash mismatch", ErrBadLink)
		}
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

	seen := make(map[statusdb.Spend]struct{})
	var spends []statusdb.Spend
	var totalFees uint64
	for ti := 1; ti < len(b.Txs); ti++ {
		tx := b.Txs[ti]
		if tx.Tidy.IsCoinbase() {
			return fmt.Errorf("%w: tx %d", ErrExtraCoinbase, ti)
		}
		if err := tx.Consistent(); err != nil {
			return fmt.Errorf("%w: tx %d: %v", ErrBadProof, ti, err)
		}
		sigHash := tx.SigHash()
		var inSum uint64
		for bi := range tx.Bodies {
			body := &tx.Bodies[bi]
			sp := statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()}
			if _, dup := seen[sp]; dup {
				return fmt.Errorf("%w: height %d position %d", ErrDuplicateSpend, sp.Height, sp.Pos)
			}
			seen[sp] = struct{}{}

			// EV: the branch must fold to the stored header's root.
			hdr, ok := r.headers.Header(body.Height)
			if !ok {
				return fmt.Errorf("tx %d input %d: %w: no header at height %d", ti, bi, ErrMissingOutput, body.Height)
			}
			if !merkle.Verify(body.PrevTx.LeafHash(), body.Branch, hdr.MerkleRoot) {
				return fmt.Errorf("tx %d input %d: %w: merkle branch does not reach root at height %d", ti, bi, ErrMissingOutput, body.Height)
			}
			out, ok := body.SpentOutput()
			if !ok {
				return fmt.Errorf("tx %d input %d: %w: relative index %d out of range", ti, bi, ErrBadProof, body.RelIndex)
			}

			// UV: one bit probe.
			unspent, err := r.status.IsUnspent(sp.Height, sp.Pos)
			if err != nil {
				return fmt.Errorf("tx %d input %d: %w: %v", ti, bi, ErrBadProof, err)
			}
			if !unspent {
				return fmt.Errorf("tx %d input %d: %w: height %d position %d", ti, bi, ErrSpentOutput, sp.Height, sp.Pos)
			}

			// SV: the unlock script against the ELs-carried lock script.
			if err := r.engine.Execute(body.UnlockScript, out.LockScript, sigHash); err != nil {
				return fmt.Errorf("tx %d input %d: %w: %v", ti, bi, ErrScriptFailed, err)
			}

			if body.PrevTx.IsCoinbase() && b.Header.Height-body.Height < txmodel.CoinbaseMaturity {
				return fmt.Errorf("%w: tx %d input %d", ErrImmature, ti, bi)
			}
			if inSum+out.Value < inSum {
				return fmt.Errorf("%w: tx %d", ErrOverflow, ti)
			}
			inSum += out.Value
			spends = append(spends, sp)
		}
		outSum, ok := tx.OutputSum()
		if !ok {
			return fmt.Errorf("%w: tx %d", ErrOverflow, ti)
		}
		if outSum > inSum {
			return fmt.Errorf("%w: tx %d spends %d, creates %d", ErrValueImbalance, ti, inSum, outSum)
		}
		fee := inSum - outSum
		if totalFees+fee < totalFees {
			return fmt.Errorf("%w: fees", ErrOverflow)
		}
		totalFees += fee
	}

	cbSum, ok := b.Txs[0].OutputSum()
	if !ok {
		return fmt.Errorf("%w: coinbase", ErrOverflow)
	}
	allowed := blockmodel.Subsidy(b.Header.Height) + totalFees
	if cbSum > allowed {
		return fmt.Errorf("%w: claims %d, allowed %d", ErrBadSubsidy, cbSum, allowed)
	}

	// The bit flip (paper §IV-E1): insert the block's all-ones vector
	// and clear the spent bits.
	if err := r.status.Connect(b.Header.Height, b.TotalOutputs(), spends); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBlock, err)
	}
	return nil
}

// refValidateTx is the reference verdict on a standalone transaction
// (mempool admission) against r's chain state: the same per-input
// checks in the same order — duplicate spend, EV, UV, SV, maturity at
// the next height — then value conservation, one input at a time,
// committing nothing. Production's ValidateTx and ValidateTxsBatch (at
// every worker count, cached or not) must reach exactly its verdicts.
func refValidateTx(r *refValidator, tx *txmodel.EBVTx) error {
	if tx.Tidy.IsCoinbase() {
		return ErrStandaloneCoinbase
	}
	if err := tx.Consistent(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	next := uint64(0)
	if tip, ok := r.headers.TipHeight(); ok {
		next = tip + 1
	}
	sigHash := tx.SigHash()
	seen := make(map[statusdb.Spend]struct{})
	var inSum uint64
	for bi := range tx.Bodies {
		body := &tx.Bodies[bi]
		sp := statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()}
		if _, dup := seen[sp]; dup {
			return fmt.Errorf("%w: input %d", ErrDuplicateSpend, bi)
		}
		seen[sp] = struct{}{}

		hdr, ok := r.headers.Header(body.Height)
		if !ok {
			return fmt.Errorf("input %d: %w: no header at height %d", bi, ErrMissingOutput, body.Height)
		}
		if !merkle.Verify(body.PrevTx.LeafHash(), body.Branch, hdr.MerkleRoot) {
			return fmt.Errorf("input %d: %w: merkle branch does not reach root at height %d", bi, ErrMissingOutput, body.Height)
		}
		out, ok := body.SpentOutput()
		if !ok {
			return fmt.Errorf("input %d: %w: relative index %d out of range", bi, ErrBadProof, body.RelIndex)
		}

		unspent, err := r.status.IsUnspent(sp.Height, sp.Pos)
		if err != nil {
			return fmt.Errorf("input %d: %w: %v", bi, ErrBadProof, err)
		}
		if !unspent {
			return fmt.Errorf("input %d: %w: height %d position %d", bi, ErrSpentOutput, sp.Height, sp.Pos)
		}

		if err := r.engine.Execute(body.UnlockScript, out.LockScript, sigHash); err != nil {
			return fmt.Errorf("input %d: %w: %v", bi, ErrScriptFailed, err)
		}
		if body.PrevTx.IsCoinbase() && next-body.Height < txmodel.CoinbaseMaturity {
			return fmt.Errorf("%w: input %d", ErrImmature, bi)
		}
		inSum += out.Value
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

// saveBytes serializes a status database for byte-level comparison.
func saveBytes(t testing.TB, d *statusdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameVerdict fails the test unless got matches the reference's
// verdict want exactly: both nil, or both errors with identical text.
func sameVerdict(t testing.TB, what string, want, got error) {
	t.Helper()
	switch {
	case want == nil && got == nil:
	case want == nil || got == nil:
		t.Fatalf("%s: reference err=%v, production err=%v", what, want, got)
	case want.Error() != got.Error():
		t.Fatalf("%s: error divergence:\n  reference:  %v\n  production: %v", what, want, got)
	}
}

// sameState fails the test unless the two status databases serialize
// to identical bytes.
func sameState(t testing.TB, what string, ref, got *statusdb.DB) {
	t.Helper()
	if !bytes.Equal(saveBytes(t, ref), saveBytes(t, got)) {
		t.Fatalf("%s: status database differs from the reference's (%d vs %d unspent)",
			what, ref.UnspentCount(), got.UnspentCount())
	}
}

// TestReferenceAcceptsChain pins the reference model itself on the
// honest chain: it accepts every block and lands on the generator's
// ground-truth unspent count, as production does.
func TestReferenceAcceptsChain(t *testing.T) {
	f := newFixture(t, 150)
	r := refFixture(t, f)
	if err := r.connect(f.lastEBV); err != nil {
		t.Fatalf("reference rejects the honest last block: %v", err)
	}
	if _, err := f.ebvVal.ConnectBlock(f.lastEBV); err != nil {
		t.Fatal(err)
	}
	sameState(t, "honest chain", r.status, f.status)
	if got, want := int(r.status.UnspentCount()), f.gen.UTXOCount(); got != want {
		t.Fatalf("reference tracks %d unspent outputs, generator %d", got, want)
	}
}

// TestRecycledVerdictsDoNotLeak pins the recycling of ConnectBlockIn's
// per-block verdict storage: a block rejected in a middle transaction
// (the cancelled pool leaves the later verdicts unrun), then a block
// rejected by UV in its last transaction, then the honest block, all
// on one validator whose cache is warmed for the honest block — so a
// stale script failure left in recycled storage would reject the
// honest block's cache hits. Every step must give the reference's
// verdict, and the honest block the reference's exact state.
func TestRecycledVerdictsDoNotLeak(t *testing.T) {
	f := newFixture(t, 150)
	var spending []int
	for ti, tx := range f.lastEBV.Txs {
		if ti > 0 && len(tx.Bodies) > 0 && len(tx.Bodies[0].UnlockScript) > 10 {
			spending = append(spending, ti)
		}
	}
	if len(spending) < 3 {
		t.Skipf("need >= 3 spending txs in the last block, have %d", len(spending))
	}

	// A middle transaction's signature is broken: SV fails there.
	middle := reencode(t, f.lastEBV)
	mtx := middle.Txs[spending[len(spending)/2]]
	mtx.Bodies[0].UnlockScript[5] ^= 1
	mtx.SealInputHashes()
	rebuild(t, middle)

	// The last transaction spends an output an earlier block spent.
	lastUV := reencode(t, f.lastEBV)
	var spent *txmodel.InputBody
	for _, tx := range f.ebv[len(f.ebv)-2].Txs {
		if len(tx.Bodies) > 0 {
			spent = &tx.Bodies[0]
			break
		}
	}
	if spent == nil {
		t.Skip("parent block spends nothing")
	}
	ltx := lastUV.Txs[len(lastUV.Txs)-1]
	if len(ltx.Bodies) == 0 {
		t.Skip("last transaction spends nothing")
	}
	ltx.Bodies[0] = *spent
	ltx.SealInputHashes()
	rebuild(t, lastUV)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := refFixture(t, f)
			v, status := syncedEBV(t, f, WithParallelValidation(workers), WithVerificationCache(vcache.New(0)))
			warmFromMempool(t, v, f.lastEBV)
			for _, step := range []struct {
				name string
				blk  *blockmodel.EBVBlock
			}{{"middle-tx-rejected", middle}, {"last-tx-uv-rejected", lastUV}, {"honest", f.lastEBV}} {
				errRef := ref.connect(step.blk)
				_, err := v.ConnectBlock(step.blk)
				sameVerdict(t, step.name, errRef, err)
				if step.blk != f.lastEBV && errRef == nil {
					t.Fatalf("%s: reference accepted an invalid block", step.name)
				}
			}
			sameState(t, "honest block", ref.status, status)
		})
	}
}
