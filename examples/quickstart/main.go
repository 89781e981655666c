// Quickstart: build a small synthetic chain, reconstruct it as an EBV
// chain through the intermediary, validate it with both the Bitcoin
// baseline and the EBV node, and compare validation time and status-
// data memory — the paper's headline comparison in ~80 lines.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"ebv"
)

func main() {
	tmp, err := os.MkdirTemp("", "ebv-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// 1. One logical history, rendered two ways: the generator emits
	// Bitcoin-style blocks; the intermediary re-renders each as an EBV
	// block carrying per-input proofs (MBr, ELs, height, position).
	const blocks = 600
	gen := ebv.NewGenerator(ebv.TestWorkload(blocks))
	inter, err := ebv.NewIntermediary(tmp+"/inter", gen.Resign)
	if err != nil {
		log.Fatal(err)
	}
	defer inter.Close()

	// The paper's regime: a UTXO set too big for the memory budget on a
	// slow disk. At toy scale the set would fit in any cache, so the
	// baseline gets a small budget and an HDD-class injected latency
	// (DESIGN.md, substitution 4).
	btc, err := ebv.NewBitcoinNode(ebv.NodeConfig{
		Dir: tmp + "/btc", MemLimit: 128 << 10, ReadLatency: 500 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer btc.Close()
	evn, err := ebv.NewEBVNode(ebv.NodeConfig{Dir: tmp + "/ebv"})
	if err != nil {
		log.Fatal(err)
	}
	defer evn.Close()

	// 2. Feed every block to both validators.
	var btcTime, ebvTime time.Duration
	var inputs int
	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err != nil {
			log.Fatal(err)
		}
		eb, err := inter.ProcessBlock(cb)
		if err != nil {
			log.Fatal(err)
		}
		bdB, err := btc.SubmitBlock(cb)
		if err != nil {
			log.Fatalf("baseline rejected block %d: %v", cb.Header.Height, err)
		}
		bdE, err := evn.SubmitBlock(eb)
		if err != nil {
			log.Fatalf("EBV rejected block %d: %v", eb.Header.Height, err)
		}
		btcTime += bdB.Total()
		ebvTime += bdE.Total()
		inputs += bdB.Inputs
	}

	// 3. Both systems agree on the final state, by different means.
	fmt.Printf("chain: %d blocks, %d txs, %d inputs validated\n", blocks, gen.TotalTxs, inputs)
	fmt.Printf("unspent outputs: baseline UTXO set %d, EBV bit vectors %d, ground truth %d\n",
		btc.UTXO.Count(), evn.Status.UnspentCount(), gen.UTXOCount())

	fmt.Printf("\nvalidation time:  bitcoin %v, ebv %v\n",
		btcTime.Round(time.Millisecond), ebvTime.Round(time.Millisecond))
	fmt.Printf("status-data size: bitcoin %.1f KB (UTXO set), ebv %.1f KB (bit-vector set, %.1f KB unoptimized)\n",
		float64(btc.UTXO.SizeBytes())/1024,
		float64(evn.Status.MemUsage())/1024,
		float64(evn.Status.DenseUsage())/1024)
	fmt.Println("\nEBV validates without touching the UTXO database: EV folds each")
	fmt.Println("input's Merkle branch against a stored header, UV probes one bit in")
	fmt.Println("memory, and SV runs against the locking script carried in the proof.")
}
