package mempool

import (
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// spendBlockOutput builds a signed transaction spending the first
// usable non-coinbase output of the stored block at height h.
func (e *env) spendBlockOutput(t *testing.T, h uint64, fee uint64) *txmodel.EBVTx {
	t.Helper()
	raw, err := e.chain.BlockBytes(h)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 1; ti < len(blk.Txs); ti++ {
		outs := blk.Txs[ti].Tidy.Outputs
		if len(outs) == 0 || outs[0].Value <= fee {
			continue
		}
		pos := blk.Txs[ti].Tidy.StakePos
		if ok, err := e.status.IsUnspent(h, pos); err != nil || !ok {
			continue
		}
		body, err := e.builder.Prove(proof.Loc{Height: h, TxIndex: uint32(ti)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		payee := e.gen.Scheme().KeyFromSeed([]byte("reorg-payee"))
		tx := &txmodel.EBVTx{
			Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
				Value:      outs[0].Value - fee,
				LockScript: script.StandardLock(payee),
			}}},
			Bodies: []txmodel.InputBody{body},
		}
		key := e.gen.Scheme().KeyFromSeed(workload.KeySeed(h, uint32(ti), 0))
		unlock, err := script.StandardUnlock(key, tx.SigHash())
		if err != nil {
			t.Fatal(err)
		}
		tx.Bodies[0].UnlockScript = unlock
		tx.SealInputHashes()
		return tx
	}
	t.Skipf("no spendable non-coinbase output in block %d", h)
	return nil
}

// TestEBVBlockDisconnectedDropsStale pins the EBV pool's reorg
// asymmetry: the disconnected block's own transactions are stale by
// construction (their proofs anchor in the lost branch) and are never
// re-admitted, and pooled transactions spending outputs the reorg
// erased are evicted — all counted as stale-proof drops. A pooled
// transaction spending deep prefix history survives untouched.
func TestEBVBlockDisconnectedDropsStale(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})

	// One tx anchored at the tip (dies with the reorg), one anchored in
	// deep history (survives it).
	tip, _ := e.chain.TipHeight()
	doomed := e.spendBlockOutput(t, tip, 1_000)
	survivor := e.spendCoinbase(t, 0, 1_000)
	if _, err := pool.Add(doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Add(survivor); err != nil {
		t.Fatal(err)
	}
	survivorID := survivor.Tidy.LeafHash()

	raw, err := e.chain.BlockBytes(tip)
	if err != nil {
		t.Fatal(err)
	}
	tipBlk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	wantStale := len(tipBlk.Txs) - 1
	if wantStale == 0 {
		t.Skip("tip block carries no transactions at this scale")
	}

	stale := pool.BlockDisconnected(tipBlk)
	if stale != wantStale {
		t.Fatalf("stale count %d, want %d (the block's own txs)", stale, wantStale)
	}
	if pool.Len() != 1 {
		t.Fatalf("pool after disconnect: %d entries, want only the deep-history spender", pool.Len())
	}
	if !pool.Contains(survivorID) {
		t.Fatal("transaction spending prefix history must survive the reorg")
	}
	// The block's own txs plus the evicted pooled spender.
	if got := pool.StaleProofDrops(); got != wantStale+1 {
		t.Fatalf("StaleProofDrops %d, want %d", got, wantStale+1)
	}

	// A deeper disconnect adds its txs to the count but finds nothing
	// left to evict.
	raw2, err := e.chain.BlockBytes(tip - 1)
	if err != nil {
		t.Fatal(err)
	}
	blk2, err := blockmodel.DecodeEBVBlock(raw2)
	if err != nil {
		t.Fatal(err)
	}
	stale2 := pool.BlockDisconnected(blk2)
	if pool.Len() != 1 {
		t.Fatal("second disconnect must not evict the deep-history spender")
	}
	if got := pool.StaleProofDrops(); got != wantStale+1+stale2 {
		t.Fatalf("StaleProofDrops %d after second disconnect", got)
	}
}
