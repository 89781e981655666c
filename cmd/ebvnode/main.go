// Command ebvnode performs an Initial Block Download from a chain
// directory produced by chaingen, running either the EBV validator or
// the Bitcoin baseline, and reports timing and memory statistics.
//
// Usage:
//
//	ebvnode -chain ./chains/inter/chain -datadir ./node            # EBV
//	ebvnode -mode bitcoin -chain ./chains/classic -datadir ./node  # baseline
//	ebvnode -fastsync 127.0.0.1:7401 -datadir ./node               # snapshot bootstrap
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ebv/internal/chainstore"
	"ebv/internal/forkchoice"
	"ebv/internal/hashx"
	"ebv/internal/node"
	"ebv/internal/statesync"
)

func main() {
	var (
		mode     = flag.String("mode", "ebv", "validator: ebv or bitcoin")
		chainDir = flag.String("chain", "", "source chain directory (required unless -fastsync)")
		dataDir  = flag.String("datadir", "nodedata", "node state directory")
		memLimit = flag.Int("memlimit", 64, "status-data memory budget in MiB (bitcoin mode)")
		latency  = flag.Duration("latency", 0, "injected disk latency per cache miss (bitcoin mode)")
		period   = flag.Int("period", 1000, "blocks per progress report")
		workers  = flag.Int("workers", 1, "parallel proof-verification workers per block (ebv mode; >1 enables the pipeline)")
		depth    = flag.Int("depth", 0, "cross-block pipeline depth: how many future blocks may preverify ahead of the commit (ebv mode; 0 disables)")
		fastsync = flag.String("fastsync", "", "comma-separated peer addresses to fast-bootstrap from (ebv mode; -chain then replays any remaining blocks)")
		trustGen = flag.String("trustgenesis", "", "hex genesis header hash a fast-sync snapshot must build on (anchor for an empty datadir)")
		minBits  = flag.Uint("minbits", 0, "minimum per-header proof-of-work bits a fast-sync snapshot must declare")
		branch   = flag.String("branch", "", "competing chain directory (chaingen -forkat output) to feed through fork choice after the IBD")
		maxReorg = flag.Int("maxreorg", 0, "deepest reorg the fork-choice engine will execute (0 = default 128)")
		sideBlks = flag.Int("sideblocks", 0, "side-block/orphan bodies kept for fork choice (0 = default 256)")
	)
	flag.Parse()
	if *chainDir == "" && *fastsync == "" {
		fmt.Fprintln(os.Stderr, "ebvnode: -chain or -fastsync is required")
		os.Exit(2)
	}
	if *fastsync != "" && *mode != "ebv" {
		fail(fmt.Errorf("-fastsync needs -mode ebv (only EBV nodes can bootstrap from bit-vector snapshots)"))
	}

	var src *chainstore.Store
	if *chainDir != "" {
		var err error
		src, err = chainstore.Open(*chainDir)
		if err != nil {
			fail(err)
		}
		defer src.Close()
		if src.Count() == 0 {
			fail(fmt.Errorf("source chain %s is empty", *chainDir))
		}
		fmt.Fprintf(os.Stderr, "source chain: %d blocks\n", src.Count())
	}

	progress := func(p node.PeriodStats) {
		bd := p.Breakdown
		fmt.Fprintf(os.Stderr, "  blocks %6d-%6d: %8s (dbo %s, ev %s, uv %s, sv %s)\n",
			p.StartHeight, p.EndHeight, p.Wall.Round(time.Millisecond),
			bd.DBO.Round(time.Millisecond), bd.EV.Round(time.Millisecond),
			bd.UV.Round(time.Millisecond), bd.SV.Round(time.Millisecond))
	}

	start := time.Now()
	switch *mode {
	case "ebv":
		cfg := node.Config{
			Dir: *dataDir, ParallelValidation: *workers, PipelineDepth: *depth,
		}
		if *fastsync != "" {
			var peers []string
			for _, p := range strings.Split(*fastsync, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peers = append(peers, p)
				}
			}
			cfg.FastSync = &statesync.Config{
				Peers:   peers,
				MinBits: uint32(*minBits),
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				},
			}
			if *trustGen != "" {
				h, err := hashx.FromString(*trustGen)
				if err != nil {
					fail(fmt.Errorf("-trustgenesis: %w", err))
				}
				cfg.FastSync.TrustedGenesis = h
			}
		}
		n, err := node.NewEBVNode(cfg)
		if err != nil {
			fail(err)
		}
		defer n.Close()
		if fs := n.FastSyncResult; fs != nil {
			fmt.Printf("EBV fast sync complete in %s\n", fs.Wall.Round(time.Millisecond))
			fmt.Printf("  snapshot tip %d (%d chunks, %d resumed, %d bytes received)\n",
				fs.TipHeight, fs.Chunks, fs.ChunksResumed, fs.BytesReceived)
		}
		// With a local source chain, a fast-synced node replays the
		// snapshot-to-tip gap like any other IBD: from its tip, under
		// -depth.
		if src != nil {
			res, err := node.RunIBDEBV(src, n, *period, progress)
			if err != nil {
				fail(err)
			}
			fmt.Printf("EBV IBD complete in %s\n", time.Since(start).Round(time.Millisecond))
			fmt.Printf("  inputs: %d\n", res.Total.Inputs)
			fmt.Printf("  validation: ev %s, uv %s, sv %s, other %s\n",
				res.Total.EV.Round(time.Millisecond), res.Total.UV.Round(time.Millisecond),
				res.Total.SV.Round(time.Millisecond), res.Total.Other.Round(time.Millisecond))
		}
		fmt.Printf("  blocks: %d\n", n.Chain.Count())
		fmt.Printf("  status-data memory: %.2f MB (bit-vector set, %d vectors, %d unspent)\n",
			float64(n.StatusMemUsage())/(1<<20), n.Status.VectorCount(), n.Status.UnspentCount())
		if *branch != "" {
			eng := n.EnableForkChoice(forkCfg(*maxReorg, *sideBlks))
			feedBranch(*branch, n, eng)
			fmt.Printf("  tip after branch: %d (%s)\n", n.Chain.Count()-1, n.Chain.TipHash().Short())
		}
	case "bitcoin":
		n, err := node.NewBitcoinNode(node.Config{
			Dir: *dataDir, MemLimit: *memLimit << 20, ReadLatency: *latency,
		})
		if err != nil {
			fail(err)
		}
		defer n.Close()
		res, err := node.RunIBDBitcoin(src, n, *period, progress)
		if err != nil {
			fail(err)
		}
		st := n.DBStats()
		fmt.Printf("Bitcoin IBD complete in %s\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("  blocks: %d, inputs: %d\n", n.Chain.Count(), res.Total.Inputs)
		fmt.Printf("  validation: dbo %s, sv %s, other %s\n",
			res.Total.DBO.Round(time.Millisecond), res.Total.SV.Round(time.Millisecond),
			res.Total.Other.Round(time.Millisecond))
		fmt.Printf("  UTXO set: %d entries, %.2f MB serialized; db cache hits %d, misses %d\n",
			n.UTXO.Count(), float64(n.UTXO.SizeBytes())/(1<<20), st.CacheHits, st.CacheMisses)
		fmt.Printf("  status-data memory: %.2f MB (memtable + cache + table metadata)\n",
			float64(n.StatusMemUsage())/(1<<20))
		if *branch != "" {
			eng := n.EnableForkChoice(forkCfg(*maxReorg, *sideBlks))
			feedBranch(*branch, n, eng)
			fmt.Printf("  tip after branch: %d (%s)\n", n.Chain.Count()-1, n.Chain.TipHash().Short())
		}
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

func forkCfg(maxReorg, sideBlocks int) forkchoice.Config {
	return forkchoice.Config{
		MaxReorgDepth: maxReorg,
		MaxSideBlocks: sideBlocks,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
}

// accepter is the AcceptBlock surface both node types share.
type accepter interface {
	AcceptBlock(raw []byte, peer string) (forkchoice.Verdict, error)
}

// feedBranch replays a competing chain (shared prefix included — those
// blocks come back as duplicates) through the fork-choice engine and
// reports what happened. The heavier branch wins; ties keep the
// current chain.
func feedBranch(dir string, n accepter, eng *forkchoice.Engine) {
	src, err := chainstore.Open(dir)
	if err != nil {
		fail(err)
	}
	defer src.Close()
	fmt.Fprintf(os.Stderr, "feeding %d branch blocks from %s\n", src.Count(), dir)
	tally := map[forkchoice.Verdict]int{}
	for h := uint64(0); h < uint64(src.Count()); h++ {
		raw, err := src.BlockBytes(h)
		if err != nil {
			fail(err)
		}
		v, err := n.AcceptBlock(raw, "branch")
		if err != nil {
			fail(fmt.Errorf("branch block %d: %w", h, err))
		}
		tally[v]++
	}
	st := eng.Stats()
	fmt.Printf("branch fed: %d duplicate, %d side-stored, %d reorged, %d connected\n",
		tally[forkchoice.Duplicate], tally[forkchoice.SideStored],
		tally[forkchoice.Reorged], tally[forkchoice.Connected])
	fmt.Printf("  fork choice: %d reorgs (deepest %d), %d side blocks held\n",
		st.Reorgs, st.DeepestReorg, st.SideBlocks)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ebvnode:", err)
	os.Exit(1)
}
