// Propagation: how block validation time shapes gossip latency.
//
// A node forwards a block only after validating it, so validation sits
// on every hop of the gossip path (paper §I, §VI-E). This example
// measures real per-block validation times from both validators on a
// synced chain, fits per-hop delay models, and releases a seed block
// into a simulated 20-node, 5-region network — the paper's Fig. 18
// setup — printing when each node receives it.
//
// Run with:
//
//	go run ./examples/propagation
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"ebv"
)

func main() {
	tmp, err := os.MkdirTemp("", "ebv-prop-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Sync both systems over the same history, sampling per-block
	// validation times over the last stretch.
	const blocks = 500
	gen := ebv.NewGenerator(ebv.TestWorkload(blocks))
	inter, err := ebv.NewIntermediary(tmp+"/inter", gen.Resign)
	if err != nil {
		log.Fatal(err)
	}
	defer inter.Close()
	btc, err := ebv.NewBitcoinNode(ebv.NodeConfig{
		Dir: tmp + "/btc", MemLimit: 256 << 10, ReadLatency: 500 * time.Microsecond,
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

	var btcSamples, ebvSamples []time.Duration
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
			log.Fatal(err)
		}
		bdE, err := evn.SubmitBlock(eb)
		if err != nil {
			log.Fatal(err)
		}
		if cb.Header.Height > blocks-60 && bdB.Inputs > 0 {
			// Scale each per-block time to a paper-size block (same
			// per-input cost, mainnet input count), so validation and
			// the real-scale link latencies meet at realistic
			// proportions.
			ref := ebv.MainnetInputsPerBlock(590_000)
			btcSamples = append(btcSamples,
				time.Duration(float64(bdB.Total())*ref/float64(bdB.Inputs)))
			ebvSamples = append(ebvSamples,
				time.Duration(float64(bdE.Total())*ref/float64(bdE.Inputs)))
		}
	}

	fit := func(samples []time.Duration) ebv.NormalValidation {
		var sum time.Duration
		for _, s := range samples {
			sum += s
		}
		mean := sum / time.Duration(len(samples))
		var dev time.Duration
		for _, s := range samples {
			d := s - mean
			if d < 0 {
				d = -d
			}
			dev += d
		}
		return ebv.NormalValidation{Mean: mean, StdDev: dev / time.Duration(len(samples))}
	}
	btcModel, ebvModel := fit(btcSamples), fit(ebvSamples)
	fmt.Printf("per-hop validation: bitcoin %v±%v, ebv %v±%v\n",
		btcModel.Mean.Round(time.Microsecond), btcModel.StdDev.Round(time.Microsecond),
		ebvModel.Mean.Round(time.Microsecond), ebvModel.StdDev.Round(time.Microsecond))

	// Release a seed block in each network, five times.
	run := func(name string, model ebv.NormalValidation) []time.Duration {
		results, err := ebv.SimnetRepeat(ebv.SimnetConfig{Seed: 7, Validation: model}, 5)
		if err != nil {
			log.Fatal(err)
		}
		stats := ebv.SimnetSummarize(results)
		fmt.Printf("\n%s: time until k of 20 nodes have the block (mean over 5 runs)\n", name)
		for k := 4; k < len(stats.Mean); k += 5 {
			fmt.Printf("  %2d nodes: %v\n", k+1, stats.Mean[k].Round(time.Millisecond))
		}
		return stats.Mean
	}
	btcMean := run("bitcoin", btcModel)
	ebvMean := run("ebv", ebvModel)

	last := len(btcMean) - 1
	fmt.Printf("\nall-nodes propagation delay: bitcoin %v, ebv %v (%.1f%% reduction)\n",
		btcMean[last].Round(time.Millisecond), ebvMean[last].Round(time.Millisecond),
		100*(float64(btcMean[last])-float64(ebvMean[last]))/float64(btcMean[last]))
}
