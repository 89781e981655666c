// Command ebvgossip runs an EBV node on the block-gossip network: it
// serves its chain to peers, syncs from peers that are ahead, and
// relays newly learned blocks after validating them.
//
// Seed a network from a generated chain, then let fresh nodes join:
//
//	chaingen -blocks 2000 -out ./chains
//	ebvgossip -datadir ./seed -import ./chains/inter/chain -listen 127.0.0.1:7401
//	ebvgossip -datadir ./n1 -connect 127.0.0.1:7401 -listen 127.0.0.1:7402
//	ebvgossip -datadir ./n2 -connect 127.0.0.1:7402
//
// A fresh node can skip block replay and bootstrap from peer
// snapshots instead (fast sync), then follow gossip from there:
//
//	ebvgossip -datadir ./n3 -connect 127.0.0.1:7401 -fastsync
//
// The process prints each accepted block and runs until interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ebv/internal/admission"
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/forkchoice"
	"ebv/internal/hashx"
	"ebv/internal/mempool"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/statesync"
	"ebv/internal/txmodel"
)

func main() {
	var (
		dataDir   = flag.String("datadir", "gossipnode", "node state directory")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		connectTo = flag.String("connect", "", "comma-separated peer addresses to dial")
		importDir = flag.String("import", "", "preload blocks from this chain directory before serving")
		quiet     = flag.Bool("quiet", false, "suppress per-block output")
		workers   = flag.Int("workers", 1, "parallel proof-verification workers per block (>1 enables the pipeline)")
		depth     = flag.Int("depth", 0, "cross-block pipeline depth for -import replay: how many future blocks may preverify ahead of the commit (0 disables)")
		vcache    = flag.Int("vcache", 1<<16, "verified-proof cache entries (0 disables; needs -txsubmit, whose admission fills it); relayed blocks whose proofs were already verified skip EV and SV")
		fastsync  = flag.Bool("fastsync", false, "bootstrap from the -connect peers via state-sync snapshots before gossiping")
		trustGen  = flag.String("trustgenesis", "", "hex genesis header hash a fast-sync snapshot must build on (anchor for an empty datadir)")
		minBits   = flag.Uint("minbits", 0, "minimum per-header proof-of-work bits a fast-sync snapshot must declare")
		maxReorg  = flag.Int("maxreorg", 0, "deepest reorg the fork-choice engine will execute (0 = default 128)")
		sideBlks  = flag.Int("sideblocks", 0, "side-block/orphan bodies kept for fork choice (0 = default 256)")
		txSubmit  = flag.Bool("txsubmit", true, "serve transaction submissions (tx/txack) through the admission service")
		poolTxs   = flag.Int("mempooltxs", 0, "mempool transaction-count cap (0 = default 10000)")
		poolBytes = flag.Int("mempoolbytes", 0, "mempool byte cap (0 = default 32 MiB)")
		minFee    = flag.Float64("minfeerate", 0, "static eviction floor in fee-per-byte (0 = none)")
		batchSize = flag.Int("batch", 0, "admission batch size in transactions (0 = default 64)")
		batchWin  = flag.Duration("batchwindow", 0, "longest wait to fill an admission batch (0 = default 2ms)")
		queueLen  = flag.Int("queue", 0, "admission intake queue depth (0 = default 1024)")
		txRate    = flag.Float64("txrate", 0, "per-source sustained submission rate in tx/s (0 = unlimited)")
		maxPeers  = flag.Int("maxpeers", 64, "most concurrent peer connections (gossip peers and tx submitters share the cap)")
		compact   = flag.Bool("compact", true, "announce new blocks to capable peers as short-id compact blocks (kinds 14-16); needs -txsubmit for the mempool index")
		relayTO   = flag.Duration("relaytimeout", 0, "longest wait for missing compact-block transactions before falling back to a full fetch (0 = default 5s)")
		mineEvery = flag.Duration("mine", 0, "poll the mempool at this interval and mine pending transactions into a block (0 = off; needs -txsubmit)")
		lightSrv  = flag.Bool("lightserve", false, "serve light clients (kinds 17-20): filter subscriptions, push notifications, blocks by hash")
		statsEvry = flag.Duration("statsevery", 0, "emit a JSON line of wire/relay/light counters to stderr at this interval (0 = off)")
	)
	flag.Parse()

	var peers []string
	for _, p := range strings.Split(*connectTo, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}

	nodeCfg := node.Config{
		Dir: *dataDir, ParallelValidation: *workers, VerifyCacheSize: *vcache,
		PipelineDepth: *depth,
	}
	if *txSubmit {
		nodeCfg.Admission = &node.AdmissionConfig{
			Pool: mempool.Config{MaxTxs: *poolTxs, MaxBytes: *poolBytes, MinFeeRate: *minFee},
			Service: admission.Config{
				BatchSize: *batchSize, BatchWindow: *batchWin,
				QueueDepth: *queueLen, RatePerSource: *txRate,
				Workers: *workers,
			},
		}
	}
	if *fastsync {
		if len(peers) == 0 {
			fail(fmt.Errorf("-fastsync needs at least one -connect peer"))
		}
		nodeCfg.FastSync = &statesync.Config{
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
			nodeCfg.FastSync.TrustedGenesis = h
		}
	}
	n, err := node.NewEBVNode(nodeCfg)
	if err != nil {
		fail(err)
	}
	defer n.Close()
	if fs := n.FastSyncResult; fs != nil {
		fmt.Fprintf(os.Stderr, "fast sync: tip %d in %s (%d chunks, %d bytes)\n",
			fs.TipHeight, fs.Wall.Round(time.Millisecond), fs.Chunks, fs.BytesReceived)
	}

	if *importDir != "" {
		src, err := chainstore.Open(*importDir)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "importing %d blocks from %s\n", src.Count(), *importDir)
		if _, err := node.RunIBDEBV(src, n, 0, nil); err != nil {
			src.Close()
			fail(err)
		}
		src.Close()
	}

	// Every gossip node also serves snapshots, so any peer can be a
	// fast-sync source.
	cfg := p2p.Config{
		ListenAddr: *listen,
		MaxPeers:   *maxPeers,
		Snapshots:  statesync.NewServer(n.Chain, n.Status),
		TxSubmit:   n.Admission,
	}
	if *compact && n.Pool != nil {
		// Compact relay needs the mempool's leaf-hash index to
		// reconstruct announced blocks from already-admitted
		// transactions; without -txsubmit there is no pool and the
		// node stays on the legacy full-block protocol.
		cfg.Relay = n.Pool
		cfg.RelayTimeout = *relayTO
	}
	// Competing branches park or reorg to the heaviest. Reorg and
	// eviction events always reach stderr — a chain switch is
	// operationally significant even under -quiet.
	cfg.Forks = n.EnableForkChoice(forkchoice.Config{
		MaxReorgDepth: *maxReorg,
		MaxSideBlocks: *sideBlks,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	cfg.LightServe = *lightSrv
	if !*quiet {
		cfg.OnBlock = func(h uint64, from string) {
			src := "local"
			if from != "" {
				src = from
			}
			fmt.Printf("%s block %d accepted (from %s)\n", time.Now().Format("15:04:05.000"), h, src)
		}
	}
	gn := p2p.NewNode(p2p.EBVChain{Node: n}, cfg)
	addr, err := gn.Start()
	if err != nil {
		fail(err)
	}
	defer gn.Close()
	tip, ok := n.Chain.TipHeight()
	tipStr := "empty"
	if ok {
		tipStr = fmt.Sprint(tip)
	}
	fmt.Fprintf(os.Stderr, "listening on %s (chain tip: %s)\n", addr, tipStr)

	for _, peer := range peers {
		if err := gn.Connect(peer); err != nil {
			fmt.Fprintf(os.Stderr, "connect %s: %v\n", peer, err)
		} else {
			fmt.Fprintf(os.Stderr, "connected to %s\n", peer)
		}
	}

	if *mineEvery > 0 {
		if n.Pool == nil {
			fail(fmt.Errorf("-mine needs -txsubmit for a mempool to mine from"))
		}
		go mineLoop(n, gn, *mineEvery)
	}

	if *statsEvry > 0 {
		go statsLoop(gn, *statsEvry)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	fmt.Fprintln(os.Stderr, "shutting down")
	printTraffic(gn)
}

// statsLoop periodically emits one machine-readable JSON line with
// the per-kind wire counters (keyed by kind name), the compact-relay
// outcome counters, and — when light serving is on — the light-tier
// counters, so harnesses can scrape live traffic without parsing the
// human-format shutdown dump.
func statsLoop(gn *p2p.Node, every time.Duration) {
	for range time.Tick(every) {
		byName := make(map[string]p2p.KindStat)
		for k, s := range gn.KindStats() {
			byName[wire.KindName(k)] = s
		}
		line, err := json.Marshal(struct {
			Peers int                     `json:"peers"`
			Kinds map[string]p2p.KindStat `json:"kinds"`
			Relay p2p.RelayStats          `json:"relay"`
			Light p2p.LightStats          `json:"light"`
		}{gn.PeerCount(), byName, gn.RelayStats(), gn.LightStats()})
		if err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "STATS %s\n", line)
	}
}

// mineLoop polls the mempool and, whenever transactions are pending,
// packages them into the next block and submits it through the gossip
// node — which announces it to peers (compact short ids to capable
// ones). The coinbase pays a fixed seed-derived key; chains generated
// by chaingen use the same SimSig scheme, matching ebvload.
func mineLoop(n *node.EBVNode, gn *p2p.Node, every time.Duration) {
	payee := sig.SimSig{}.KeyFromSeed([]byte("ebvgossip-miner"))
	for range time.Tick(every) {
		txs, fees := n.Pool.BuildTemplate(0)
		if len(txs) == 0 {
			continue
		}
		tip, ok := n.Chain.TipHeight()
		if !ok {
			continue // nothing to build on yet
		}
		height := tip + 1
		coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
			Outputs: []txmodel.TxOut{{
				Value:      blockmodel.Subsidy(height) + fees,
				LockScript: script.StandardLock(payee),
			}},
			LockTime: uint32(height),
		}}
		blk, err := blockmodel.AssembleEBV(n.Chain.TipHash(), height, 0,
			append([]*txmodel.EBVTx{coinbase}, txs...))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mine: assemble at %d: %v\n", height, err)
			continue
		}
		if err := gn.SubmitLocal(blk.Encode(nil)); err != nil {
			fmt.Fprintf(os.Stderr, "mine: submit at %d: %v\n", height, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "mined block %d (%d txs)\n", height, len(txs))
	}
}

// printTraffic dumps the per-kind wire counters and, when compact
// relay was active, the relay outcome counters.
func printTraffic(gn *p2p.Node) {
	stats := gn.KindStats()
	kinds := make([]int, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		s := stats[byte(k)]
		fmt.Fprintf(os.Stderr, "  %-12s in %6d msgs %10d B   out %6d msgs %10d B\n",
			wire.KindName(byte(k)), s.MsgsIn, s.BytesIn, s.MsgsOut, s.BytesOut)
	}
	if rs := gn.RelayStats(); rs.CompactSent+rs.CompactReceived > 0 {
		fmt.Fprintf(os.Stderr, "  compact relay: sent %d received %d reconstructed %d txns-requested %d fallbacks %d\n",
			rs.CompactSent, rs.CompactReceived, rs.Reconstructed, rs.TxnsRequested, rs.Fallbacks)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ebvgossip:", err)
	os.Exit(1)
}
