// Wallet: propose a brand-new EBV transaction against a synced node.
//
// A transaction proposer in EBV attaches a proof to every input: the
// Merkle branch (MBr) and previous tidy transaction (ELs) fetched from
// its copy of the chain, plus the height and relative position of the
// output being spent (paper §IV-C). This example finds an unspent
// coinbase output, builds the proof with ProofBuilder, signs the EBV
// sighash, validates the transaction against the node, and finally
// mines it into the next block.
//
// Run with:
//
//	go run ./examples/wallet
package main

import (
	"fmt"
	"log"
	"os"

	"ebv"
)

func main() {
	tmp, err := os.MkdirTemp("", "ebv-wallet-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Sync a node over a small reconstructed chain.
	const blocks = 400
	gen := ebv.NewGenerator(ebv.TestWorkload(blocks))
	inter, err := ebv.NewIntermediary(tmp+"/inter", gen.Resign)
	if err != nil {
		log.Fatal(err)
	}
	defer inter.Close()
	node, err := ebv.NewEBVNode(ebv.NodeConfig{Dir: tmp + "/node"})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err != nil {
			log.Fatal(err)
		}
		eb, err := inter.ProcessBlock(cb)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := node.SubmitBlock(eb); err != nil {
			log.Fatal(err)
		}
	}

	// 1. Find a mature, unspent coinbase output we hold the key for.
	// Coinbase outputs sit at absolute position 0 of their block, and
	// the workload derives every key from creation coordinates.
	scheme := gen.Scheme()
	var spendHeight uint64
	found := false
	for h := uint64(0); h+100 < blocks; h++ {
		if ok, err := node.Status.IsUnspent(h, 0); err == nil && ok {
			spendHeight, found = h, true
			break
		}
	}
	if !found {
		log.Fatal("no unspent coinbase found")
	}
	key := scheme.KeyFromSeed(ebv.OutputKeySeed(spendHeight, 0, 0))
	fmt.Printf("spending the coinbase of block %d\n", spendHeight)

	// 2. Build the input proof from our copy of the chain.
	builder := ebv.NewProofBuilder(node.Chain, 16)
	body, err := builder.Prove(ebv.TxLoc{Height: spendHeight, TxIndex: 0}, 0)
	if err != nil {
		log.Fatal(err)
	}
	value := body.PrevTx.Outputs[0].Value
	fmt.Printf("proof: MBr depth %d, ELs %d bytes, position %d\n",
		body.Branch.Depth(), body.PrevTx.EncodedSize(), body.AbsPosition())

	// 3. Assemble the transaction: pay to a fresh key, sign the EBV
	// sighash, seal the input hashes.
	payee := scheme.KeyFromSeed([]byte("the payee"))
	const fee = 1_000
	tx := &ebv.EBVTx{
		Tidy: ebv.TidyTx{
			Version: 1,
			Outputs: []ebv.TxOut{{Value: value - fee, LockScript: ebv.StandardLock(payee)}},
		},
		Bodies: []ebv.InputBody{body},
	}
	unlock, err := ebv.StandardUnlock(key, tx.SigHash())
	if err != nil {
		log.Fatal(err)
	}
	tx.Bodies[0].UnlockScript = unlock
	tx.SealInputHashes()

	// 4. The node admits it from the proofs alone — no UTXO database.
	if err := node.Validator.ValidateTx(tx); err != nil {
		log.Fatalf("transaction rejected: %v", err)
	}
	fmt.Println("transaction validated (EV via MBr, UV via bit vector, SV via ELs)")

	// 5. Mine it: package with a coinbase, submit the block.
	coinbase := &ebv.EBVTx{Tidy: ebv.TidyTx{
		Outputs:  []ebv.TxOut{{Value: ebv.Subsidy(blocks) + fee, LockScript: ebv.StandardLock(payee)}},
		LockTime: uint32(blocks),
	}}
	blk, err := ebv.AssembleEBVBlock(node.Chain.TipHash(), blocks, 0, []*ebv.EBVTx{coinbase, tx})
	if err != nil {
		log.Fatal(err)
	}
	bd, err := node.SubmitBlock(blk)
	if err != nil {
		log.Fatalf("block rejected: %v", err)
	}
	fmt.Printf("block %d connected in %v (ev %v, uv %v, sv %v)\n",
		blk.Header.Height, bd.Total(), bd.EV, bd.UV, bd.SV)

	// The spent bit is now zero; respending must fail.
	if ok, _ := node.Status.IsUnspent(spendHeight, 0); ok {
		log.Fatal("bit should be cleared")
	}
	if err := node.Validator.ValidateTx(tx); err == nil {
		log.Fatal("double spend must be rejected")
	} else {
		fmt.Printf("double-spend correctly rejected: %v\n", err)
	}
}
