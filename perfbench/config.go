package main

import (
	"fmt"
	"syscall"
	"time"

	"ebv/internal/admission"
	"ebv/internal/chainstore"
	"ebv/internal/forkchoice"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/statesync"
)

// nodeConfig is the node configuration cmd/ebvgossip ships by default,
// kept as the one list every node in every workload is built from:
//
//	-workers 1      sequential validation (ParallelValidation 1)
//	-depth 0        no cross-block IBD pipeline
//	-vcache 65536   verified-proof cache entries
//	-shards 0       statusdb default shard count
//	-txsubmit       mempool + admission service, every knob at its default
//
// Signatures use sig.SimSig{} at DefaultSimCost (the node's nil
// Scheme), the scheme every generator and CLI in the repository uses.
func nodeConfig(dir string) node.Config {
	return node.Config{
		Dir:                dir,
		Optimize:           true,
		StatusShards:       0,
		ParallelValidation: 1,
		VerifyCacheSize:    1 << 16,
		PipelineDepth:      0,
		Admission: &node.AdmissionConfig{
			Service: admission.Config{Workers: 1},
		},
	}
}

// gossipConfig completes the shipped defaults at the p2p layer for n:
// snapshot serving, tx submission, compact relay (-compact) and fork
// choice (-forkchoice, which also calls EnableForkChoice on n, so
// blocks reaching n through p2p.EBVChain go through the engine).
// Light serving (-lightserve) is on only where a light client
// attaches.
//
// forksInP2P false leaves the engine on the node but not in the p2p
// layer: inbound blocks then reach the node through Chain.SubmitRaw
// (EBVChain → AcceptBlock → Engine.ProcessBlock), the one call the
// benchmark can time from outside. Only tip_relay's receiver uses it;
// it serves no headers, and nothing in the workload asks it for any.
func gossipConfig(n *node.EBVNode, lightServe, forksInP2P bool) p2p.Config {
	cfg := p2p.Config{
		ListenAddr: "127.0.0.1:0",
		MaxPeers:   64,
		Snapshots:  statesync.NewServer(n.Chain, n.Status),
		TxSubmit:   n.Admission,
		Relay:      n.Pool,
		LightServe: lightServe,
	}
	if n.Forks == nil {
		n.EnableForkChoice(forkchoice.Config{})
	}
	if forksInP2P {
		cfg.Forks = n.Forks
	}
	return cfg
}

// fullNode is one node with its gossip layer.
type fullNode struct {
	n  *node.EBVNode
	gn *p2p.Node
}

// openNode opens a fresh node under dir and, when src is non-nil,
// brings it to src's tip the way `ebvgossip -import` does.
func openNode(dir string, src *chainstore.Store) (*node.EBVNode, error) {
	n, err := node.NewEBVNode(nodeConfig(dir))
	if err != nil {
		return nil, err
	}
	if src != nil {
		if _, err := node.RunIBDEBV(src, n, 0, nil); err != nil {
			n.Close()
			return nil, fmt.Errorf("import: %w", err)
		}
	}
	return n, nil
}

// startGossip starts n's p2p layer over chain with cfg.
func startGossip(n *node.EBVNode, chain p2p.Chain, cfg p2p.Config) (*fullNode, error) {
	gn := p2p.NewNode(chain, cfg)
	if _, err := gn.Start(); err != nil {
		return nil, err
	}
	return &fullNode{n: n, gn: gn}, nil
}

// close stops the gossip layer, then the node.
func (f *fullNode) close() error {
	f.gn.Close()
	return f.n.Close()
}

// quiesce flushes what set-up wrote to disk, so no writeback competes
// with the measured window.
func quiesce() { syscall.Sync() }

// waitFor polls cond every millisecond until it holds or d elapses.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
