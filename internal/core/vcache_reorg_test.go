package core

import (
	"bytes"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
	"ebv/internal/workload"
)

// TestCacheReorgSafety is the fork-choice regression for the
// verified-proof cache: a transaction validated (and cached) against a
// block of the losing branch must NOT validate a replacement block
// after the reorg swaps the header at its proof's height. The cache
// key binds the stored Merkle root at the body's height, so the stale
// entry simply stops matching — it is still *in* the cache (no
// eviction happens on reorg), it just can never be reached again.
func TestCacheReorgSafety(t *testing.T) {
	const forkAt = 150
	total := forkAt + 2

	// Two generators over the identical logical history; reseeding one
	// at the fork point yields competing valid blocks for height forkAt.
	genA := workload.NewGenerator(workload.TestParams(total))
	genB := workload.NewGenerator(workload.TestParams(total))
	imA, err := proof.NewIntermediary(t.TempDir(), genA.Resign)
	if err != nil {
		t.Fatal(err)
	}
	defer imA.Close()
	imB, err := proof.NewIntermediary(t.TempDir(), genB.Resign)
	if err != nil {
		t.Fatal(err)
	}
	defer imB.Close()

	var prefix []*blockmodel.EBVBlock
	for h := 0; h < forkAt; h++ {
		ca, err := genA.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := genB.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		ea, err := imA.ProcessBlock(ca)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := imB.ProcessBlock(cb); err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, ea)
	}
	genB.Reseed(777)
	nextEBV := func(g *workload.Generator, im *proof.Intermediary) *blockmodel.EBVBlock {
		cb, err := g.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := im.ProcessBlock(cb)
		if err != nil {
			t.Fatal(err)
		}
		return eb
	}
	blockA := nextEBV(genA, imA) // losing branch's block at height forkAt
	blockB := nextEBV(genB, imB) // winning branch's block at height forkAt
	blockB2 := nextEBV(genB, imB)
	if blockA.Header.Hash() == blockB.Header.Hash() {
		t.Fatal("branches did not diverge")
	}

	// Two validators over the same replay: one with the cache under
	// test, one plain (the rejection-equivalence reference).
	mkVal := func(opts ...EBVOption) (*EBVValidator, *chainstore.Store) {
		chain, err := chainstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { chain.Close() })
		v := NewEBVValidator(statusdb.New(), script.NewEngine(genA.Scheme()), chain, opts...)
		v.SetBlockOutputsFunc(func(height uint64) int {
			raw, err := chain.BlockBytes(height)
			if err != nil {
				return 0
			}
			blk, err := blockmodel.DecodeEBVBlock(raw)
			if err != nil {
				return 0
			}
			return blk.TotalOutputs()
		})
		for _, b := range prefix {
			if _, err := v.ConnectBlock(b); err != nil {
				t.Fatal(err)
			}
			if err := chain.Append(b.Header, b.Encode(nil)); err != nil {
				t.Fatal(err)
			}
		}
		return v, chain
	}
	cached, chain := mkVal(WithVerificationCache(vcache.New(0)))
	plain, plainChain := mkVal()

	connect := func(v *EBVValidator, c *chainstore.Store, b *blockmodel.EBVBlock) {
		t.Helper()
		if _, err := v.ConnectBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := c.Append(b.Header, b.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	connect(cached, chain, blockA)
	connect(plain, plainChain, blockA)

	// Craft T spending a NON-coinbase output created inside blockA: a
	// coinbase spend would trip the maturity check, which runs before
	// EV and would mask what this test is about. All its proof material
	// anchors in blockA's header — the one the reorg will replace.
	ti, value := -1, uint64(0)
	for i, tx := range blockA.Txs {
		if i > 0 && len(tx.Tidy.Outputs) > 0 && tx.Tidy.Outputs[0].Value > 2_000 {
			ti, value = i, tx.Tidy.Outputs[0].Value
			break
		}
	}
	if ti < 0 {
		t.Fatal("losing-branch block has no usable non-coinbase output")
	}
	builder := proof.NewBuilder(chain, 16)
	body, err := builder.Prove(proof.Loc{Height: forkAt, TxIndex: uint32(ti)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	payee := genA.Scheme().KeyFromSeed([]byte("reorg-payee"))
	T := &txmodel.EBVTx{
		Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
			Value:      value - 1_000,
			LockScript: script.StandardLock(payee),
		}}},
		Bodies: []txmodel.InputBody{body},
	}
	key := genA.Scheme().KeyFromSeed(workload.KeySeed(forkAt, uint32(ti), 0))
	unlock, err := script.StandardUnlock(key, T.SigHash())
	if err != nil {
		t.Fatal(err)
	}
	T.Bodies[0].UnlockScript = unlock
	T.SealInputHashes()

	// Warm through the mempool path and capture the key it minted.
	if err := cached.ValidateTx(T); err != nil {
		t.Fatalf("pre-reorg admission must succeed: %v", err)
	}
	oldKey, ok := cached.cacheKey(&T.Bodies[0], T.SigHash())
	if !ok || !cached.Cache().Contains(oldKey) {
		t.Fatal("admission must insert the verified-proof entry")
	}

	// The reorg: blockA out, blockB in, at the same height.
	reorg := func(v *EBVValidator, c *chainstore.Store) {
		t.Helper()
		if err := v.DisconnectBlock(blockA); err != nil {
			t.Fatal(err)
		}
		if err := c.Truncate(forkAt); err != nil {
			t.Fatal(err)
		}
		connect(v, c, blockB)
	}
	reorg(cached, chain)
	reorg(plain, plainChain)

	// The replaced header re-keys the entry out of reach: the new key
	// differs and misses, while the old key is still resident — proving
	// the safety mechanism is the keying, not an eviction sweep.
	newKey, ok := cached.cacheKey(&T.Bodies[0], T.SigHash())
	if !ok {
		t.Fatal("header at the proof height must still exist")
	}
	if newKey == oldKey {
		t.Fatal("cache key must change when the stored header changes")
	}
	if !cached.Cache().Contains(oldKey) {
		t.Fatal("reorg must not depend on cache eviction")
	}
	if cached.Cache().Contains(newKey) {
		t.Fatal("replacement header's key must not be cached")
	}

	// Mempool re-admission now fails live, identically to the plain
	// validator.
	errCached := cached.ValidateTx(T)
	errPlain := plain.ValidateTx(T)
	if errCached == nil || errPlain == nil {
		t.Fatalf("stale proof must be rejected: cached=%v plain=%v", errCached, errPlain)
	}
	if errCached.Error() != errPlain.Error() {
		t.Fatalf("error divergence:\n  cached: %v\n  plain:  %v", errCached, errPlain)
	}

	// And a block that packages T on the winning branch must fail EV on
	// both validators with identical errors — the cached one must not
	// sneak it through on the stale entry.
	tCopy, err := txmodel.DecodeEBVTx(T.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	evil, err := blockmodel.AssembleEBV(blockB.Header.Hash(), forkAt+1, blockB2.Header.TimeStamp,
		[]*txmodel.EBVTx{blockB2.Txs[0], tCopy})
	if err != nil {
		t.Fatal(err)
	}
	preUnspent := cached.Status().UnspentCount()
	var preState bytes.Buffer
	if err := cached.Status().Save(&preState); err != nil {
		t.Fatal(err)
	}
	_, errCachedBlk := cached.ConnectBlock(evil)
	_, errPlainBlk := plain.ConnectBlock(evil)
	if errCachedBlk == nil || errPlainBlk == nil {
		t.Fatalf("stale-proof block must be rejected: cached=%v plain=%v", errCachedBlk, errPlainBlk)
	}
	if errCachedBlk.Error() != errPlainBlk.Error() {
		t.Fatalf("block error divergence:\n  cached: %v\n  plain:  %v", errCachedBlk, errPlainBlk)
	}
	// The failed connect left no trace.
	if cached.Status().UnspentCount() != preUnspent {
		t.Fatal("rejected block must not change the unspent count")
	}
	var postState bytes.Buffer
	if err := cached.Status().Save(&postState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preState.Bytes(), postState.Bytes()) {
		t.Fatal("rejected block must leave the status database untouched")
	}

	// Sanity: the winning branch's own next block still connects with
	// the cache in place.
	connect(cached, chain, blockB2)
	connect(plain, plainChain, blockB2)
	if cached.Status().UnspentCount() != plain.Status().UnspentCount() {
		t.Fatal("validators diverged after the reorg")
	}
}
