// Multisig: EBV validation of non-trivial scripts.
//
// EBV changes where the locking script comes from (the ELs proof
// instead of the UTXO set) but not how scripts execute, so anything
// the script system supports — here a 2-of-3 bare multisig — works
// unchanged (paper §IV-D1: "the SV process in EBV works in the same
// way as the traditional ones"). This example mines a multisig output
// into an EBV chain, then spends it with two of the three keys,
// proving the spend with MBr/ELs like any other input.
//
// Run with:
//
//	go run ./examples/multisig
package main

import (
	"fmt"
	"log"
	"os"

	"ebv"
)

func main() {
	tmp, err := os.MkdirTemp("", "ebv-multisig-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Sync a short chain so we have funds and headers.
	const blocks = 250
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

	scheme := gen.Scheme()
	builder := ebv.NewProofBuilder(node.Chain, 16)

	// The three key holders.
	alice := scheme.KeyFromSeed([]byte("alice"))
	bob := scheme.KeyFromSeed([]byte("bob"))
	carol := scheme.KeyFromSeed([]byte("carol"))
	msLock := ebv.PayToMultisig(2, [][]byte{alice.Public(), bob.Public(), carol.Public()})

	// Block A: fund the 2-of-3 output from an unspent coinbase.
	var fundHeight uint64
	found := false
	for h := uint64(0); h+100 < blocks; h++ {
		if ok, err := node.Status.IsUnspent(h, 0); err == nil && ok {
			fundHeight, found = h, true
			break
		}
	}
	if !found {
		log.Fatal("no unspent coinbase")
	}
	body, err := builder.Prove(ebv.TxLoc{Height: fundHeight, TxIndex: 0}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fund := &ebv.EBVTx{
		Tidy: ebv.TidyTx{Version: 1, Outputs: []ebv.TxOut{{
			Value: body.PrevTx.Outputs[0].Value - 1000, LockScript: msLock,
		}}},
		Bodies: []ebv.InputBody{body},
	}
	coinbaseKey := scheme.KeyFromSeed(ebv.OutputKeySeed(fundHeight, 0, 0))
	unlock, err := ebv.StandardUnlock(coinbaseKey, fund.SigHash())
	if err != nil {
		log.Fatal(err)
	}
	fund.Bodies[0].UnlockScript = unlock
	fund.SealInputHashes()

	blkA, err := mine(node, blocks, 1000, fund)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block %d: funded 2-of-3 multisig output (locking script %d bytes)\n",
		blkA.Header.Height, len(msLock))

	// Block B: Alice and Carol spend it. The fund tx was the second tx
	// of block A, so its stake position covers the coinbase output.
	fundLoc := ebv.TxLoc{Height: blkA.Header.Height, TxIndex: 1}
	spendBody, err := builder.Prove(fundLoc, 0)
	if err != nil {
		log.Fatal(err)
	}
	dest := scheme.KeyFromSeed([]byte("destination"))
	spend := &ebv.EBVTx{
		Tidy: ebv.TidyTx{Version: 1, Outputs: []ebv.TxOut{{
			Value: spendBody.PrevTx.Outputs[0].Value - 1000, LockScript: ebv.StandardLock(dest),
		}}},
		Bodies: []ebv.InputBody{spendBody},
	}
	sigHash := spend.SigHash()
	sigA, _ := alice.Sign(sigHash)
	sigC, _ := carol.Sign(sigHash)
	// 0x00 dummy, then the signatures in key order (Bitcoin semantics).
	ms := [][]byte{sigA, sigC}
	spend.Bodies[0].UnlockScript = unlockMultisig(ms)
	spend.SealInputHashes()

	if err := node.Validator.ValidateTx(spend); err != nil {
		log.Fatalf("2-of-3 spend rejected: %v", err)
	}
	fmt.Println("2-of-3 spend validated via MBr + ELs + two signatures")

	// One signature is not enough.
	bad := *spend
	bad.Bodies = append([]ebv.InputBody{}, spend.Bodies...)
	bad.Bodies[0].UnlockScript = unlockMultisig([][]byte{sigA})
	bad.SealInputHashes()
	if err := node.Validator.ValidateTx(&bad); err == nil {
		log.Fatal("1-of-3 must be rejected")
	} else {
		fmt.Printf("1-of-3 correctly rejected: %v\n", err)
	}

	if _, err := mine(node, blkA.Header.Height+1, 1000, spend); err != nil {
		log.Fatal(err)
	}
	fmt.Println("spend mined; multisig output now marked spent in the bit-vector set")
}

// unlockMultisig builds OP_0 <sig...> (the engine's CHECKMULTISIG pops
// a historical dummy element first).
func unlockMultisig(sigs [][]byte) []byte {
	out := []byte{0x00}
	for _, s := range sigs {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	return out
}

// mine packages txs (plus a fee-claiming coinbase) into the next block
// and submits it.
func mine(node *ebv.EBVNode, height uint64, fees uint64, txs ...*ebv.EBVTx) (*ebv.EBVBlock, error) {
	payee := ebv.SimSig{}.KeyFromSeed([]byte("miner"))
	coinbase := &ebv.EBVTx{Tidy: ebv.TidyTx{
		Outputs:  []ebv.TxOut{{Value: ebv.Subsidy(height) + fees, LockScript: ebv.StandardLock(payee)}},
		LockTime: uint32(height),
	}}
	blk, err := ebv.AssembleEBVBlock(node.Chain.TipHash(), height, 0, append([]*ebv.EBVTx{coinbase}, txs...))
	if err != nil {
		return nil, err
	}
	if _, err := node.SubmitBlock(blk); err != nil {
		return nil, err
	}
	return blk, nil
}
