// IBD: a side-by-side Initial Block Download comparison.
//
// A newcomer must validate every historical block before serving as a
// validator node (paper §III-B). This example builds both renderings
// of one chain on disk, runs a full IBD into a fresh node of each
// kind under the same memory budget, and prints the per-period time
// breakdown — the shape of the paper's Figs. 5 and 17.
//
// Run with:
//
//	go run ./examples/ibd
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"ebv"
)

func main() {
	tmp, err := os.MkdirTemp("", "ebv-ibd-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Build both chains on disk.
	const blocks = 1000
	gen := ebv.NewGenerator(ebv.TestWorkload(blocks))
	classic, err := ebv.OpenChainStore(tmp + "/classic")
	if err != nil {
		log.Fatal(err)
	}
	defer classic.Close()
	inter, err := ebv.NewIntermediary(tmp+"/inter", gen.Resign)
	if err != nil {
		log.Fatal(err)
	}
	defer inter.Close()
	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err != nil {
			log.Fatal(err)
		}
		if err := classic.Append(cb.Header, cb.Encode(nil)); err != nil {
			log.Fatal(err)
		}
		if _, err := inter.ProcessBlock(cb); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("chain: %d blocks, %d inputs total\n\n", blocks, gen.TotalInputs)

	const period = 200
	memLimit := 512 << 10 // same status-data budget for both systems
	slowDisk := 300 * time.Microsecond

	// Baseline IBD.
	btc, err := ebv.NewBitcoinNode(ebv.NodeConfig{
		Dir: tmp + "/btc", MemLimit: memLimit, ReadLatency: slowDisk,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer btc.Close()
	fmt.Println("bitcoin IBD (period / wall / DBO share):")
	resB, err := ebv.RunIBDBitcoin(classic, btc, period, func(p ebv.PeriodStats) {
		fmt.Printf("  %4d-%4d  %8v  dbo %5.1f%%\n", p.StartHeight, p.EndHeight,
			p.Wall.Round(time.Millisecond), 100*float64(p.Breakdown.DBO)/float64(p.Wall))
	})
	if err != nil {
		log.Fatal(err)
	}

	// EBV IBD.
	evn, err := ebv.NewEBVNode(ebv.NodeConfig{Dir: tmp + "/ebv"})
	if err != nil {
		log.Fatal(err)
	}
	defer evn.Close()
	fmt.Println("ebv IBD (period / wall / SV share):")
	resE, err := ebv.RunIBDEBV(inter.Chain(), evn, period, func(p ebv.PeriodStats) {
		fmt.Printf("  %4d-%4d  %8v  sv %5.1f%%\n", p.StartHeight, p.EndHeight,
			p.Wall.Round(time.Millisecond), 100*float64(p.Breakdown.SV)/float64(p.Wall))
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntotal IBD: bitcoin %v, ebv %v (%.1f%% reduction)\n",
		resB.Wall.Round(time.Millisecond), resE.Wall.Round(time.Millisecond),
		100*(float64(resB.Wall)-float64(resE.Wall))/float64(resB.Wall))
	fmt.Printf("status data after IBD: bitcoin %d UTXOs (%.1f KB), ebv %d unspent bits (%.1f KB)\n",
		btc.UTXO.Count(), float64(btc.UTXO.SizeBytes())/1024,
		evn.Status.UnspentCount(), float64(evn.Status.MemUsage())/1024)
}
