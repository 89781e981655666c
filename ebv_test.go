package ebv_test

import (
	"errors"
	"fmt"
	"testing"

	"ebv"
)

// TestPublicAPIEndToEnd drives the whole system through the public
// façade only: generate a history, render both chains, sync both node
// types, agree on state, then propose and mine a fresh transaction.
func TestPublicAPIEndToEnd(t *testing.T) {
	tmp := t.TempDir()

	const blocks = 220
	gen := ebv.NewGenerator(ebv.TestWorkload(blocks))
	inter, err := ebv.NewIntermediary(tmp+"/inter", gen.Resign)
	if err != nil {
		t.Fatal(err)
	}
	defer inter.Close()

	btc, err := ebv.NewBitcoinNode(ebv.NodeConfig{Dir: tmp + "/btc", MemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	evn, err := ebv.NewEBVNode(ebv.NodeConfig{Dir: tmp + "/ebv"})
	if err != nil {
		t.Fatal(err)
	}
	defer evn.Close()

	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := inter.ProcessBlock(cb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := btc.SubmitBlock(cb); err != nil {
			t.Fatalf("baseline block %d: %v", cb.Header.Height, err)
		}
		if _, err := evn.SubmitBlock(eb); err != nil {
			t.Fatalf("EBV block %d: %v", eb.Header.Height, err)
		}
	}
	if btc.UTXO.Count() != evn.Status.UnspentCount() {
		t.Fatalf("state divergence: %d vs %d", btc.UTXO.Count(), evn.Status.UnspentCount())
	}
	if int(btc.UTXO.Count()) != gen.UTXOCount() {
		t.Fatalf("state vs ground truth: %d vs %d", btc.UTXO.Count(), gen.UTXOCount())
	}

	// Propose a new transaction spending an unspent coinbase.
	scheme := gen.Scheme()
	var spendHeight uint64
	found := false
	for h := uint64(0); h+100 < blocks; h++ {
		if ok, err := evn.Status.IsUnspent(h, 0); err == nil && ok {
			spendHeight, found = h, true
			break
		}
	}
	if !found {
		t.Skip("no unspent coinbase at this scale")
	}
	builder := ebv.NewProofBuilder(evn.Chain, 8)
	body, err := builder.Prove(ebv.TxLoc{Height: spendHeight, TxIndex: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := scheme.KeyFromSeed(ebv.OutputKeySeed(spendHeight, 0, 0))
	payee := scheme.KeyFromSeed([]byte("payee"))
	tx := &ebv.EBVTx{
		Tidy: ebv.TidyTx{Version: 1, Outputs: []ebv.TxOut{{
			Value: body.PrevTx.Outputs[0].Value - 500, LockScript: ebv.StandardLock(payee),
		}}},
		Bodies: []ebv.InputBody{body},
	}
	unlock, err := ebv.StandardUnlock(key, tx.SigHash())
	if err != nil {
		t.Fatal(err)
	}
	tx.Bodies[0].UnlockScript = unlock
	tx.SealInputHashes()
	if err := evn.Validator.ValidateTx(tx); err != nil {
		t.Fatalf("fresh tx rejected: %v", err)
	}

	// Mine it.
	coinbase := &ebv.EBVTx{Tidy: ebv.TidyTx{
		Outputs:  []ebv.TxOut{{Value: ebv.Subsidy(blocks) + 500, LockScript: ebv.StandardLock(payee)}},
		LockTime: uint32(blocks),
	}}
	blk, err := ebv.AssembleEBVBlock(evn.Chain.TipHash(), blocks, 0, []*ebv.EBVTx{coinbase, tx})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := evn.SubmitBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Inputs != 1 || bd.Txs != 2 {
		t.Fatalf("breakdown %+v", bd)
	}
	// Double spend must now fail with a wrapped ErrInvalidBlock.
	if err := evn.Validator.ValidateTx(tx); !errors.Is(err, ebv.ErrInvalidBlock) {
		t.Fatalf("double spend: %v", err)
	}
}

// TestFacadeMerkleHelpers exercises the re-exported primitives.
func TestFacadeMerkleHelpers(t *testing.T) {
	leaves := []ebv.Hash{ebv.Sum([]byte("a")), ebv.Sum([]byte("b")), ebv.Sum([]byte("c"))}
	root := ebv.MerkleRoot(leaves)
	if root.IsZero() {
		t.Fatal("root must not be zero")
	}
	if ebv.DoubleSum([]byte("x")) == ebv.Sum([]byte("x")) {
		t.Fatal("double-SHA must differ from single")
	}
	if ebv.Subsidy(0) != 50*100_000_000 {
		t.Fatal("genesis subsidy")
	}
	if ebv.QuarterLabel(0) != "09-Q1" {
		t.Fatal("quarter label")
	}
	if ebv.MainnetInputsPerBlock(590_000) < 1000 {
		t.Fatal("activity model must report paper-scale inputs")
	}
}

// TestFacadeSimnet exercises the re-exported simulator.
func TestFacadeSimnet(t *testing.T) {
	res, err := ebv.SimnetRun(ebv.SimnetConfig{Seed: 1, Validation: ebv.FixedValidation(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrival) != 20 {
		t.Fatalf("default network must have 20 nodes, got %d", len(res.Arrival))
	}
	runs, err := ebv.SimnetRepeat(ebv.SimnetConfig{Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := ebv.SimnetSummarize(runs)
	if len(st.Mean) != 20 {
		t.Fatal("summary length")
	}
}

// ExampleScriptEngine demonstrates P2PKH script validation through the
// public API.
func ExampleScriptEngine() {
	scheme := ebv.SimSig{Cost: 1}
	key := scheme.KeyFromSeed([]byte("alice"))
	lock := ebv.StandardLock(key)

	sigHash := ebv.Sum([]byte("the transaction digest"))
	unlock, _ := ebv.StandardUnlock(key, sigHash)

	engine := ebv.NewScriptEngine(scheme)
	fmt.Println("valid spend:", engine.Execute(unlock, lock, sigHash) == nil)

	mallory := scheme.KeyFromSeed([]byte("mallory"))
	forged, _ := ebv.StandardUnlock(mallory, sigHash)
	fmt.Println("forged spend:", engine.Execute(forged, lock, sigHash) == nil)
	// Output:
	// valid spend: true
	// forged spend: false
}
