package mempool

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/core"
	"ebv/internal/hashx"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// env is a synced EBV validator with a proof builder and key access.
type env struct {
	gen     *workload.Generator
	chain   *chainstore.Store
	status  *statusdb.DB
	val     *core.EBVValidator
	builder *proof.Builder
	blocks  int
}

func newEnv(t *testing.T, blocks int) *env {
	t.Helper()
	e := &env{blocks: blocks}
	e.gen = workload.NewGenerator(workload.TestParams(blocks))
	im, err := proof.NewIntermediary(t.TempDir(), e.gen.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	// The validator keeps its own chain copy: connect, then append.
	e.chain, err = chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.chain.Close() })
	e.status = statusdb.New()
	e.val = core.NewEBVValidator(e.status, script.NewEngine(e.gen.Scheme()), e.chain)
	// Disconnects may recreate fully spent vectors; resolve output
	// counts from the stored blocks (see node.New for the real wiring).
	e.val.SetBlockOutputsFunc(func(height uint64) int {
		raw, err := e.chain.BlockBytes(height)
		if err != nil {
			return 0
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return 0
		}
		return blk.TotalOutputs()
	})
	for !e.gen.Done() {
		cb, err := e.gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := im.ProcessBlock(cb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.val.ConnectBlock(eb); err != nil {
			t.Fatal(err)
		}
		if err := e.chain.Append(eb.Header, eb.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	e.builder = proof.NewBuilder(e.chain, 16)
	return e
}

// spendCoinbase builds a signed transaction spending the coinbase of
// an unspent block, paying fee.
func (e *env) spendCoinbase(t *testing.T, skip int, fee uint64) *txmodel.EBVTx {
	t.Helper()
	found := 0
	for h := uint64(0); h+100 < uint64(e.blocks); h++ {
		ok, err := e.status.IsUnspent(h, 0)
		if err != nil || !ok {
			continue
		}
		if found < skip {
			found++
			continue
		}
		body, err := e.builder.Prove(proof.Loc{Height: h, TxIndex: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		payee := e.gen.Scheme().KeyFromSeed([]byte{byte(skip)})
		tx := &txmodel.EBVTx{
			Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
				Value:      body.PrevTx.Outputs[0].Value - fee,
				LockScript: script.StandardLock(payee),
			}}},
			Bodies: []txmodel.InputBody{body},
		}
		key := e.gen.Scheme().KeyFromSeed(workload.KeySeed(h, 0, 0))
		unlock, err := script.StandardUnlock(key, tx.SigHash())
		if err != nil {
			t.Fatal(err)
		}
		tx.Bodies[0].UnlockScript = unlock
		tx.SealInputHashes()
		return tx
	}
	t.Skip("not enough unspent coinbases at this scale")
	return nil
}

func TestAddAndTemplate(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})
	txA := e.spendCoinbase(t, 0, 5_000)
	txB := e.spendCoinbase(t, 1, 500)

	idA, err := pool.Add(txA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Add(txB); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 2 {
		t.Fatalf("Len=%d", pool.Len())
	}
	if !pool.Contains(idA) {
		t.Fatal("Contains must report the pooled tx")
	}

	txs, fees := pool.BuildTemplate(0)
	if len(txs) != 2 {
		t.Fatalf("template has %d txs", len(txs))
	}
	if fees != 5_500 {
		t.Fatalf("fees=%d", fees)
	}
	// Fee-rate ordering: the 5000-fee tx first (similar sizes).
	if in0, _ := txs[0].InputSum(); in0 == 0 {
		t.Fatal("template tx malformed")
	}
	out0, _ := txs[0].OutputSum()
	in0, _ := txs[0].InputSum()
	if in0-out0 != 5_000 {
		t.Fatalf("first template tx fee %d, want the high-fee tx", in0-out0)
	}
}

func TestRejectsInvalidAndDuplicatesAndConflicts(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})
	tx := e.spendCoinbase(t, 0, 1_000)
	if _, err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Add(tx); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	// A different tx spending the same output conflicts.
	conflict := e.spendCoinbase(t, 0, 2_000) // skip=0 finds the same coinbase
	// It found the same unspent coinbase because the pool does not
	// mutate chain state.
	if _, err := pool.Add(conflict); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflict: %v", err)
	}
	// Invalid: corrupt signature.
	bad := e.spendCoinbase(t, 1, 1_000)
	bad.Bodies[0].UnlockScript[3] ^= 1
	bad.SealInputHashes()
	if _, err := pool.Add(bad); !errors.Is(err, core.ErrInvalidBlock) {
		t.Fatalf("invalid: %v", err)
	}
}

func TestPoolFull(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{MaxTxs: 1})
	if _, err := pool.Add(e.spendCoinbase(t, 0, 1_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Add(e.spendCoinbase(t, 1, 1_000)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("full: %v", err)
	}
}

func TestMineFromTemplateAndBlockConnected(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})
	pool.Add(e.spendCoinbase(t, 0, 3_000))
	pool.Add(e.spendCoinbase(t, 1, 1_000))

	txs, fees := pool.BuildTemplate(0)
	payee := e.gen.Scheme().KeyFromSeed([]byte("miner"))
	coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Outputs: []txmodel.TxOut{{
			Value:      blockmodel.Subsidy(uint64(e.blocks)) + fees,
			LockScript: script.StandardLock(payee),
		}},
		LockTime: uint32(e.blocks),
	}}
	blk, err := blockmodel.AssembleEBV(e.chain.TipHash(), uint64(e.blocks), 0,
		append([]*txmodel.EBVTx{coinbase}, txs...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.val.ConnectBlock(blk); err != nil {
		t.Fatalf("mined block rejected: %v", err)
	}
	if err := e.chain.Append(blk.Header, blk.Encode(nil)); err != nil {
		t.Fatal(err)
	}

	dropped := pool.BlockConnected(blk)
	if dropped != 2 {
		t.Fatalf("dropped %d, want 2", dropped)
	}
	if pool.Len() != 0 {
		t.Fatalf("pool must be empty, has %d", pool.Len())
	}
}

func TestBlockConnectedDropsConflicts(t *testing.T) {
	e := newEnv(t, 250)
	poolA := New(e.val, Config{})
	poolB := New(e.val, Config{})
	// The same output is spent by different txs in two pools (e.g. two
	// nodes); mining one must evict the other as a conflict.
	txA := e.spendCoinbase(t, 0, 3_000)
	txB := e.spendCoinbase(t, 0, 9_000) // same coinbase, different fee
	if _, err := poolA.Add(txA); err != nil {
		t.Fatal(err)
	}
	if _, err := poolB.Add(txB); err != nil {
		t.Fatal(err)
	}

	txs, fees := poolA.BuildTemplate(0)
	payee := e.gen.Scheme().KeyFromSeed([]byte("miner"))
	coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Outputs: []txmodel.TxOut{{
			Value:      blockmodel.Subsidy(uint64(e.blocks)) + fees,
			LockScript: script.StandardLock(payee),
		}},
		LockTime: uint32(e.blocks),
	}}
	blk, err := blockmodel.AssembleEBV(e.chain.TipHash(), uint64(e.blocks), 0,
		append([]*txmodel.EBVTx{coinbase}, txs...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.val.ConnectBlock(blk); err != nil {
		t.Fatal(err)
	}
	if dropped := poolB.BlockConnected(blk); dropped != 1 {
		t.Fatalf("conflict eviction dropped %d, want 1", dropped)
	}
}

func TestTemplateRespectsOutputBudget(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})
	pool.Add(e.spendCoinbase(t, 0, 3_000))
	pool.Add(e.spendCoinbase(t, 1, 1_000))
	// Budget of 2 outputs: 1 coinbase + 1 tx output fits.
	txs, _ := pool.BuildTemplate(2)
	if len(txs) != 1 {
		t.Fatalf("budgeted template has %d txs, want 1", len(txs))
	}
}

func TestRejectsImmatureCoinbaseSpend(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})
	// Find a young unspent coinbase (< 100 confirmations deep).
	found := false
	for h := uint64(160); h < 250; h++ {
		ok, err := e.status.IsUnspent(h, 0)
		if err != nil || !ok {
			continue
		}
		body, err := e.builder.Prove(proof.Loc{Height: h, TxIndex: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		payee := e.gen.Scheme().KeyFromSeed([]byte("p"))
		tx := &txmodel.EBVTx{
			Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
				Value:      body.PrevTx.Outputs[0].Value - 100,
				LockScript: script.StandardLock(payee),
			}}},
			Bodies: []txmodel.InputBody{body},
		}
		key := e.gen.Scheme().KeyFromSeed(workload.KeySeed(h, 0, 0))
		unlock, err := script.StandardUnlock(key, tx.SigHash())
		if err != nil {
			t.Fatal(err)
		}
		tx.Bodies[0].UnlockScript = unlock
		tx.SealInputHashes()
		if _, err := pool.Add(tx); !errors.Is(err, core.ErrImmature) {
			t.Fatalf("immature coinbase spend must be rejected, got %v", err)
		}
		found = true
		break
	}
	if !found {
		t.Skip("no young unspent coinbase at this scale")
	}
}

// poolBytes is the pool-form encoding of tx (StakePos zero): the bytes
// the pool keeps and LookupByLeaf returns.
func poolBytes(tx *txmodel.EBVTx) []byte {
	cp := *tx
	cp.Tidy.StakePos = 0
	cp.Tidy.Invalidate()
	return cp.Encode(nil)
}

// checkIndexConsistency asserts every index over the entry map agrees
// with it: the spender index, the fee heap, and the byte accounting.
// Called after every mutation in the index tests.
func checkIndexConsistency(t *testing.T, p *Pool) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	for sp, e := range p.spent {
		if p.entries[e.id] != e {
			t.Errorf("spender index maps %d:%d to %s, entry map does not hold that entry", sp.Height, sp.Pos, e.id.Short())
			continue
		}
		if !slices.Contains(e.spends, sp) {
			t.Errorf("spender index maps %d:%d to %s, which does not spend it", sp.Height, sp.Pos, e.id.Short())
		}
	}
	for _, e := range p.entries {
		for _, sp := range e.spends {
			if p.spent[sp] != e {
				t.Errorf("entry %s spends %d:%d, spender index does not map it back", e.id.Short(), sp.Height, sp.Pos)
			}
		}
	}
	if len(p.byFee) != len(p.entries) {
		t.Errorf("fee heap holds %d entries, entry map %d", len(p.byFee), len(p.entries))
	}
	total := 0
	for i, e := range p.byFee {
		if int(e.heapIdx) != i {
			t.Errorf("heap slot %d holds entry with heapIdx %d", i, e.heapIdx)
		}
		if p.entries[e.id] != e {
			t.Errorf("heap entry %s not in entry map", e.id.Short())
		}
	}
	for _, e := range p.entries {
		total += len(e.raw)
	}
	if total != p.bytes {
		t.Errorf("byte accounting %d, entries sum to %d", p.bytes, total)
	}
}

func TestLeafIndexConsistentAcrossEviction(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{MaxTxs: 2})

	txLow := e.spendCoinbase(t, 0, 1_000)
	txMid := e.spendCoinbase(t, 1, 2_000)
	txHigh := e.spendCoinbase(t, 2, 4_000)

	idLow, err := pool.Add(txLow)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexConsistency(t, pool)
	if got, ok := pool.LookupByLeaf(idLow); !ok || !bytes.Equal(got, poolBytes(txLow)) {
		t.Fatal("LookupByLeaf must return the pooled tx's pool-form bytes")
	}

	if _, err := pool.Add(txMid); err != nil {
		t.Fatal(err)
	}
	checkIndexConsistency(t, pool)

	// The pool is full; a better payer evicts the cheapest.
	idHigh, err := pool.Add(txHigh)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexConsistency(t, pool)
	if pool.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", pool.Evictions())
	}
	if _, ok := pool.LookupByLeaf(idLow); ok {
		t.Fatal("evicted tx must leave the leaf index")
	}
	if got, ok := pool.LookupByLeaf(idHigh); !ok || !bytes.Equal(got, poolBytes(txHigh)) {
		t.Fatal("surviving tx must stay indexed")
	}
	if n := len(pool.LeafHashes()); n != pool.Len() {
		t.Fatalf("LeafHashes returned %d ids for %d entries", n, pool.Len())
	}
}

func TestLeafIndexConsistentAcrossBlockAndReorg(t *testing.T) {
	e := newEnv(t, 250)
	pool := New(e.val, Config{})
	txA := e.spendCoinbase(t, 0, 3_000)
	txB := e.spendCoinbase(t, 1, 1_000)
	pool.Add(txA)
	pool.Add(txB)
	checkIndexConsistency(t, pool)

	// Mine only txA; txB stays pooled across the connect.
	payee := e.gen.Scheme().KeyFromSeed([]byte("miner"))
	coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Outputs: []txmodel.TxOut{{
			Value:      blockmodel.Subsidy(uint64(e.blocks)) + 3_000,
			LockScript: script.StandardLock(payee),
		}},
		LockTime: uint32(e.blocks),
	}}
	mined := *txA // packaging assigns stake positions on a copy
	blk, err := blockmodel.AssembleEBV(e.chain.TipHash(), uint64(e.blocks), 0,
		[]*txmodel.EBVTx{coinbase, &mined})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.val.ConnectBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := e.chain.Append(blk.Header, blk.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if dropped := pool.BlockConnected(blk); dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	checkIndexConsistency(t, pool)
	if _, ok := pool.LookupByLeaf(txA.Tidy.LeafHash()); ok {
		t.Fatal("mined tx must leave the leaf index")
	}
	if _, ok := pool.LookupByLeaf(txB.Tidy.LeafHash()); !ok {
		t.Fatal("unmined tx must stay indexed")
	}

	// A transaction spending an output created by the new block goes
	// stale when that block disconnects; the index must follow.
	body, err := e.builder.Prove(proof.Loc{Height: uint64(e.blocks), TxIndex: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	child := &txmodel.EBVTx{
		Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
			Value:      body.PrevTx.Outputs[0].Value - 500,
			LockScript: script.StandardLock(payee),
		}}},
		Bodies: []txmodel.InputBody{body},
	}
	key := e.gen.Scheme().KeyFromSeed([]byte{0}) // txA's payee (skip 0)
	unlock, err := script.StandardUnlock(key, child.SigHash())
	if err != nil {
		t.Fatal(err)
	}
	child.Bodies[0].UnlockScript = unlock
	child.SealInputHashes()
	childID, err := pool.Add(child)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexConsistency(t, pool)

	// Reorg: roll the block's status writes back, then tell the pool.
	if err := e.val.DisconnectBlock(blk); err != nil {
		t.Fatal(err)
	}
	pool.BlockDisconnected(blk)
	checkIndexConsistency(t, pool)
	if _, ok := pool.LookupByLeaf(childID); ok {
		t.Fatal("stale-proof tx must leave the leaf index on reorg")
	}
	if _, ok := pool.LookupByLeaf(txB.Tidy.LeafHash()); !ok {
		t.Fatal("tx with proofs below the reorg must survive")
	}

	// txA was mined, then its block disconnected. Its own proofs point
	// below the reorg height, so it can be re-admitted — and the leaf
	// index must pick it up again alongside the survivor.
	readmitted, err := pool.Add(txA)
	if err != nil {
		t.Fatalf("re-admitting disconnected tx: %v", err)
	}
	checkIndexConsistency(t, pool)
	if got, ok := pool.LookupByLeaf(readmitted); !ok || !bytes.Equal(got, poolBytes(txA)) {
		t.Fatal("re-admitted tx must be indexed by its leaf hash")
	}
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d txs after re-admission, want 2 (txA, txB)", pool.Len())
	}
}

// TestConcurrentPoolReads runs the pool's read-locked readers —
// Contains, LookupByLeaf, LeafHashes and the index check — while one
// writer cycles the pool through CommitBatch, BlockConnected and
// BlockDisconnected. A LookupByLeaf hit must be its transaction's
// pool-form bytes, a LeafHashes snapshot must name only known ids,
// each once, and every read-locked look at the indexes must find them
// in agreement: no reader sees an entry half added or half removed.
func TestConcurrentPoolReads(t *testing.T) {
	e := newEnv(t, 250)
	raws := e.spendFirstOutputs(t, 1_000)
	if len(raws) < 64 {
		t.Fatalf("only %d spendable outputs, want at least 64", len(raws))
	}
	cands := make([]Candidate, len(raws))
	want := make(map[hashx.Hash][]byte, len(raws))
	ids := make([]hashx.Hash, len(raws))
	for i, raw := range raws {
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = tx.Tidy.LeafHash()
		cands[i] = Candidate{Tx: tx, Raw: raw, ID: ids[i]}
		want[ids[i]] = poolBytes(tx)
	}
	absent := hashx.Hash{0xff, 0xfe}
	pool := New(e.val, Config{})

	const rounds = 40
	done := make(chan struct{})
	var wg sync.WaitGroup
	var hits [3]int
	for r := range hits {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n >= 50 {
						return
					}
				default:
				}
				id := ids[(n*7+r)%len(ids)]
				if pool.Contains(absent) {
					t.Errorf("Contains reports an id never offered")
					return
				}
				if pool.Contains(id) {
					hits[r]++
				}
				if raw, ok := pool.LookupByLeaf(id); ok && !bytes.Equal(raw, want[id]) {
					t.Errorf("LookupByLeaf(%s) returned bytes other than its pool form", id.Short())
					return
				}
				if n%8 == 0 {
					seen := make(map[hashx.Hash]bool)
					for _, h := range pool.LeafHashes() {
						if _, known := want[h]; !known || seen[h] {
							t.Errorf("LeafHashes snapshot holds unknown or repeated id %s", h.Short())
							return
						}
						seen[h] = true
					}
					checkIndexConsistency(t, pool)
				}
			}
		}(r)
	}

	coinbase := &txmodel.EBVTx{}
	for round := 0; round < rounds; round++ {
		for _, err := range pool.CommitBatch(cands) {
			if err != nil && !errors.Is(err, ErrDuplicate) {
				t.Errorf("round %d: CommitBatch: %v", round, err)
			}
		}
		// Mine a third of the candidates, then disconnect a block high
		// enough to make some of the rest stale.
		mined := []*txmodel.EBVTx{coinbase}
		for i := round % 3; i < len(cands); i += 3 {
			mined = append(mined, cands[i].Tx)
		}
		pool.BlockConnected(&blockmodel.EBVBlock{Txs: mined})
		stale := &blockmodel.EBVBlock{Txs: []*txmodel.EBVTx{coinbase}}
		stale.Header.Height = uint64(100 + 4*round)
		pool.BlockDisconnected(stale)
	}
	pool.CommitBatch(cands)
	close(done)
	wg.Wait()

	checkIndexConsistency(t, pool)
	if pool.Len() != len(cands) {
		t.Fatalf("pool holds %d of %d transactions after the last commit", pool.Len(), len(cands))
	}
	for r, n := range hits {
		if n == 0 {
			t.Errorf("reader %d never hit a pooled transaction", r)
		}
	}
}
