package core

import (
	"errors"
	"fmt"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/merkle"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
)

// pipelineFixture syncs a fresh validator connecting with the given
// worker count (at workers<=1, both stages inline on the calling
// goroutine) over the fixture's blocks, all but the last.
func pipelineFixture(t *testing.T, f *fixture, workers int) (*EBVValidator, *statusdb.DB) {
	t.Helper()
	chain2, err := chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chain2.Close() })
	status2 := statusdb.New()
	v := NewEBVValidator(status2, script.NewEngine(f.gen.Scheme()), chain2, WithParallelValidation(workers))
	for i := 0; i < len(f.ebv)-1; i++ {
		if _, err := v.ConnectBlock(f.ebv[i]); err != nil {
			t.Fatalf("pipeline connect %d: %v", i, err)
		}
		if err := chain2.Append(f.ebv[i].Header, f.ebv[i].Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	return v, status2
}

// mutation produces one adversarial variant of the fixture's last
// block (or a crafted block). It returns nil to skip (no usable
// spends at this seed).
type mutation struct {
	name string
	make func(t *testing.T, f *fixture) *blockmodel.EBVBlock
}

// adversarialCases covers every rejection path core_test.go exercises,
// plus the crafted immature-coinbase spend that cannot be produced by
// mutation (any proof mutation fails EV first).
func adversarialCases() []mutation {
	return []mutation{
		{"fake-position", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					tx.Bodies[0].PrevTx.StakePos += 3
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"tampered-branch", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 && len(tx.Bodies[0].Branch.Siblings) > 0 {
					tx.Bodies[0].Branch.Siblings[0][0] ^= 1
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"body-hash-mismatch", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					tx.Bodies[0].Height++ // not resealed: consistency must fail
					return blk
				}
			}
			return nil
		}},
		{"bad-signature", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 && len(tx.Bodies[0].UnlockScript) > 10 {
					tx.Bodies[0].UnlockScript[5] ^= 1
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"double-spend", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			var donor *txmodel.InputBody
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					donor = &tx.Bodies[0]
					break
				}
			}
			if donor == nil {
				return nil
			}
			for _, tx := range blk.Txs[1:] {
				if len(tx.Bodies) > 0 && &tx.Bodies[0] != donor {
					tx.Bodies[0] = *donor
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"spent-output", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			older := f.ebv[len(f.ebv)-2]
			var spent *txmodel.InputBody
			for _, tx := range older.Txs {
				if len(tx.Bodies) > 0 {
					spent = &tx.Bodies[0]
					break
				}
			}
			if spent == nil {
				return nil
			}
			blk := reencode(t, f.lastEBV)
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					tx.Bodies[0] = *spent
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"extra-coinbase", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			if len(blk.Txs) < 2 {
				return nil
			}
			// Strip a non-first transaction's inputs so it reads as a
			// coinbase; refresh only the root (AssembleEBV would refuse
			// to package it).
			blk.Txs[1].Tidy.InputHashes = nil
			blk.Txs[1].Bodies = nil
			blk.Header.MerkleRoot = merkle.Root(blk.TxLeaves())
			return blk
		}},
		{"inflated-coinbase", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			blk.Txs[0].Tidy.Outputs[0].Value += 1
			rebuild(t, blk)
			return blk
		}},
		{"wrong-merkle-root", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			blk.Header.MerkleRoot[0] ^= 1
			return blk
		}},
		{"bad-link", func(t *testing.T, f *fixture) *blockmodel.EBVBlock {
			blk := reencode(t, f.lastEBV)
			blk.Header.PrevBlock[0] ^= 1
			return blk
		}},
		{"immature-coinbase", craftImmatureCoinbaseSpend},
	}
}

// craftImmatureCoinbaseSpend builds a genuinely valid block at the
// fixture's next height whose only flaw is spending the parent
// block's coinbase one block after creation: real Merkle branch, real
// signature (via the generator's key material), correct values — so
// EV, UV and SV all pass and only the maturity rule can reject it.
func craftImmatureCoinbaseSpend(t *testing.T, f *fixture) *blockmodel.EBVBlock {
	t.Helper()
	parent := f.ebv[len(f.ebv)-2]
	height := f.lastEBV.Header.Height
	cbOut := parent.Txs[0].Tidy.Outputs[0]

	spender := &txmodel.EBVTx{
		Tidy: txmodel.TidyTx{
			Version: 1,
			Outputs: []txmodel.TxOut{{Value: cbOut.Value, LockScript: cbOut.LockScript}},
		},
		Bodies: []txmodel.InputBody{{
			Branch:   merkle.Build(parent.TxLeaves()).Branch(0),
			PrevTx:   parent.Txs[0].Tidy,
			Height:   parent.Header.Height,
			RelIndex: 0,
		}},
	}
	unlock, err := f.gen.Resign(parent.Header.Height, 0, 0, spender.SigHash())
	if err != nil {
		t.Fatal(err)
	}
	spender.Bodies[0].UnlockScript = unlock
	spender.SealInputHashes()

	coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Version: 1,
		Outputs: []txmodel.TxOut{{Value: blockmodel.Subsidy(height), LockScript: cbOut.LockScript}},
	}}
	blk, err := blockmodel.AssembleEBV(parent.Header.Hash(), height, f.lastEBV.Header.TimeStamp,
		[]*txmodel.EBVTx{coinbase, spender})
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestPipelineEquivalence proves the single connect route against the
// reference model: for the valid chain and every adversarial case,
// ConnectBlock at every worker count accepts/rejects exactly as the
// reference does and reports the identical error, and the honest block
// lands on the reference's byte-identical state.
func TestPipelineEquivalence(t *testing.T) {
	f := newFixture(t, 150)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := refFixture(t, f)
			par, parStatus := pipelineFixture(t, f, workers)

			for _, c := range adversarialCases() {
				blk := c.make(t, f)
				if blk == nil {
					t.Logf("case %s: no usable spends, skipped", c.name)
					continue
				}
				errRef := ref.connect(blk)
				_, errPar := par.ConnectBlock(blk)
				if errRef == nil {
					t.Fatalf("case %s: reference accepted the block", c.name)
				}
				sameVerdict(t, "case "+c.name, errRef, errPar)
				if !errors.Is(errPar, ErrInvalidBlock) {
					t.Fatalf("case %s: error must wrap ErrInvalidBlock: %v", c.name, errPar)
				}
			}

			// Failed connects left both untouched: the honest block
			// still connects on both, to identical state.
			if err := ref.connect(f.lastEBV); err != nil {
				t.Fatalf("reference honest block: %v", err)
			}
			bdPar, err := par.ConnectBlock(f.lastEBV)
			if err != nil {
				t.Fatalf("honest block: %v", err)
			}
			if bdPar.Inputs != f.lastEBV.TotalInputs() || bdPar.Outputs != f.lastEBV.TotalOutputs() || bdPar.Txs != len(f.lastEBV.Txs) {
				t.Fatalf("breakdown shape: %+v", bdPar)
			}
			sameState(t, "honest block", ref.status, parStatus)
			if bdPar.CacheHits != 0 || bdPar.CacheMisses != 0 {
				t.Fatalf("uncached validator must report no cache traffic: %+v", bdPar)
			}
			if bdPar.Inputs > 0 && (bdPar.EV <= 0 || bdPar.SV <= 0) {
				t.Fatalf("pipeline breakdown must attribute EV and SV wall time: %+v", bdPar)
			}
		})
	}
}

// TestPipelineFailureDeterministic runs a block with failures in
// several transactions through the pipeline repeatedly: the reported
// error must be identical on every run (and identical to the
// reference's verdict) regardless of goroutine scheduling. Run under
// -race this also exercises the pool for data races.
func TestPipelineFailureDeterministic(t *testing.T) {
	f := newFixture(t, 150)
	blk := reencode(t, f.lastEBV)
	corrupted := 0
	for _, tx := range blk.Txs {
		if len(tx.Bodies) > 0 && len(tx.Bodies[0].UnlockScript) > 10 {
			tx.Bodies[0].UnlockScript[5] ^= 1
			tx.SealInputHashes()
			corrupted++
		}
	}
	if corrupted < 2 {
		t.Skipf("need >= 2 corruptible txs, have %d", corrupted)
	}
	rebuild(t, blk)

	refErr := refFixture(t, f).connect(blk)
	if refErr == nil {
		t.Fatal("reference accepted the corrupt block")
	}
	par, _ := pipelineFixture(t, f, 8)
	for run := 0; run < 25; run++ {
		_, err := par.ConnectBlock(blk)
		if err == nil {
			t.Fatalf("run %d: corrupt block accepted", run)
		}
		sameVerdict(t, fmt.Sprintf("run %d", run), refErr, err)
	}
}

// TestRunWorkersDeterminism checks the pool's invariant directly:
// every index at or below the lowest failing index runs to
// completion, on every schedule.
func TestRunWorkersDeterminism(t *testing.T) {
	const n = 500
	failAt := map[int]bool{123: true, 124: true, 400: true}
	for run := 0; run < 50; run++ {
		ran := make([]bool, n)
		runWorkers(8, n, func(i int) bool {
			ran[i] = true
			return !failAt[i]
		})
		for i := 0; i <= 123; i++ {
			if !ran[i] {
				t.Fatalf("run %d: task %d below lowest failure was skipped", run, i)
			}
		}
		// The scan a caller performs must find 123 first.
		for i := 0; i < n; i++ {
			if ran[i] && failAt[i] {
				if i != 123 {
					t.Fatalf("run %d: first recorded failure is %d, want 123", run, i)
				}
				break
			}
		}
	}
	// Degenerate widths share the early-exit semantics.
	for _, workers := range []int{0, 1} {
		ran := make([]bool, 10)
		runWorkers(workers, 10, func(i int) bool {
			ran[i] = true
			return i != 4
		})
		for i := 0; i <= 4; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: task %d skipped", workers, i)
			}
		}
		for i := 5; i < 10; i++ {
			if ran[i] {
				t.Fatalf("workers=%d: task %d ran past the failure", workers, i)
			}
		}
	}
}

// stubHeaders is a HeaderSource for states built directly on a
// statusdb, bypassing chain storage.
type stubHeaders struct {
	hdr blockmodel.Header
	tip uint64
}

func (s stubHeaders) Header(h uint64) (blockmodel.Header, bool) {
	if h == s.tip {
		return s.hdr, true
	}
	return blockmodel.Header{}, false
}

func (s stubHeaders) TipHeight() (uint64, bool) { return s.tip, true }

// TestDisconnectRequiresResolverForSpentVector is the regression for
// the silent NOutputs:0 corruption: disconnecting a block whose input
// spent the last output of a now fully spent vector must hard-fail
// when no BlockOutputsFunc can say how long the recreated vector is —
// and succeed once one is installed.
func TestDisconnectRequiresResolverForSpentVector(t *testing.T) {
	status := statusdb.New()
	if err := status.Connect(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Block 1 spends block 0's only output: vector 0 is deleted.
	if err := status.Connect(1, 1, []statusdb.Spend{{Height: 0, Pos: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, live := status.VectorLen(0); live {
		t.Fatal("vector 0 should be deleted as fully spent")
	}

	// DisconnectBlock checks tip identity and the bodies' positions
	// only, so a skeleton block suffices.
	blk := &blockmodel.EBVBlock{
		Header: blockmodel.Header{Version: 1, Height: 1},
		Txs: []*txmodel.EBVTx{{
			Bodies: []txmodel.InputBody{{
				Height:   0,
				RelIndex: 0,
				PrevTx:   txmodel.TidyTx{Outputs: []txmodel.TxOut{{Value: 1}}},
			}},
		}},
	}
	v := NewEBVValidator(status, script.NewEngine(sig.SimSig{}), stubHeaders{hdr: blk.Header, tip: 1})

	if err := v.DisconnectBlock(blk); !errors.Is(err, ErrNoBlockOutputs) {
		t.Fatalf("missing resolver must be a hard error, got %v", err)
	}
	v.SetBlockOutputsFunc(func(height uint64) int { return 0 })
	if err := v.DisconnectBlock(blk); !errors.Is(err, ErrNoBlockOutputs) {
		t.Fatalf("resolver returning 0 must be a hard error, got %v", err)
	}
	if n, live := status.VectorLen(1); !live || n != 1 {
		t.Fatalf("failed disconnects must not touch state: len=%d live=%v", n, live)
	}

	v.SetBlockOutputsFunc(func(height uint64) int { return 1 })
	if err := v.DisconnectBlock(blk); err != nil {
		t.Fatalf("disconnect with resolver: %v", err)
	}
	if unspent, err := status.IsUnspent(0, 0); err != nil || !unspent {
		t.Fatalf("restored bit must be unspent again: %v %v", unspent, err)
	}
	if tip, ok := status.Tip(); !ok || tip != 0 {
		t.Fatalf("tip after disconnect: %d %v", tip, ok)
	}
}

// TestDisconnectLiveVectorNeedsNoResolver covers the complementary
// path: while the spent-from vector is still live its own length is
// authoritative and no resolver is required.
func TestDisconnectLiveVectorNeedsNoResolver(t *testing.T) {
	status := statusdb.New()
	if err := status.Connect(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Spend one of two outputs: vector 0 stays live.
	if err := status.Connect(1, 1, []statusdb.Spend{{Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	blk := &blockmodel.EBVBlock{
		Header: blockmodel.Header{Version: 1, Height: 1},
		Txs: []*txmodel.EBVTx{{
			Bodies: []txmodel.InputBody{{
				Height:   0,
				RelIndex: 1,
				PrevTx:   txmodel.TidyTx{Outputs: []txmodel.TxOut{{Value: 1}, {Value: 1}}},
			}},
		}},
	}
	v := NewEBVValidator(status, script.NewEngine(sig.SimSig{}), stubHeaders{hdr: blk.Header, tip: 1})
	if err := v.DisconnectBlock(blk); err != nil {
		t.Fatalf("disconnect with live vector must not need a resolver: %v", err)
	}
	if unspent, err := status.IsUnspent(0, 1); err != nil || !unspent {
		t.Fatalf("restored bit must be unspent again: %v %v", unspent, err)
	}
}
