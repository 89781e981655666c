package node

import (
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/forkchoice"
	"ebv/internal/hashx"
)

// This file adapts both node types to the fork-choice engine
// (internal/forkchoice): thin Chain views over their chainstore plus
// validator, and the AcceptBlock entry point that gossip and local
// submission route through so a block on a competing branch parks or
// reorgs instead of erroring.

// forkView is the chainstore-backed part of forkchoice.Chain, shared
// by both adapters.
type forkView struct{ store *chainstore.Store }

func (v forkView) TipHeight() (uint64, bool)                 { return v.store.TipHeight() }
func (v forkView) TipHash() hashx.Hash                       { return v.store.TipHash() }
func (v forkView) Header(h uint64) (blockmodel.Header, bool) { return v.store.Header(h) }
func (v forkView) HeightByHash(h hashx.Hash) (uint64, bool)  { return v.store.HeightByHash(h) }
func (v forkView) HasBody(h uint64) bool                     { return v.store.HasBody(h) }
func (v forkView) BlockBytes(h uint64) ([]byte, error)       { return v.store.BlockBytes(h) }
func (v forkView) Locator() []hashx.Hash                     { return v.store.Locator() }
func (v forkView) LocatorFork(loc []hashx.Hash) (uint64, bool) {
	return v.store.LocatorFork(loc)
}

// ebvForkChain drives an EBVNode from the fork-choice engine.
type ebvForkChain struct {
	forkView
	n *EBVNode
}

func (c ebvForkChain) ConnectRaw(raw []byte) error {
	_, err := c.n.SubmitBlockRaw(raw)
	return err
}

func (c ebvForkChain) DisconnectTip() ([]byte, error) { return c.n.disconnectTip() }

// btcForkChain drives a BitcoinNode from the fork-choice engine.
type btcForkChain struct {
	forkView
	n *BitcoinNode
}

func (c btcForkChain) ConnectRaw(raw []byte) error {
	_, err := c.n.SubmitBlockRaw(raw)
	return err
}

func (c btcForkChain) DisconnectTip() ([]byte, error) { return c.n.disconnectTip() }

// EnableForkChoice attaches a fork-choice engine to the node. Blocks
// routed through AcceptBlock afterwards may park on side branches or
// trigger reorgs; without it, AcceptBlock only accepts tip extensions
// (the seed behavior).
func (n *EBVNode) EnableForkChoice(cfg forkchoice.Config) *forkchoice.Engine {
	n.Forks = forkchoice.New(ebvForkChain{forkView{n.Chain}, n}, cfg)
	return n.Forks
}

// EnableForkChoice attaches a fork-choice engine to the node.
func (n *BitcoinNode) EnableForkChoice(cfg forkchoice.Config) *forkchoice.Engine {
	n.Forks = forkchoice.New(btcForkChain{forkView{n.Chain}, n}, cfg)
	return n.Forks
}

// AcceptBlock routes one serialized EBV block. With a fork-choice
// engine attached it handles competing branches and orphans; without
// one it decodes and submits the block as a tip extension. peer
// attributes orphan-store usage ("" for local submissions).
func (n *EBVNode) AcceptBlock(raw []byte, peer string) (forkchoice.Verdict, error) {
	if n.Forks != nil {
		return n.Forks.ProcessBlock(raw, peer)
	}
	if _, err := n.SubmitBlockRaw(raw); err != nil {
		return forkchoice.Rejected, err
	}
	return forkchoice.Connected, nil
}

// AcceptBlock routes one serialized classic block (see the EBV
// variant).
func (n *BitcoinNode) AcceptBlock(raw []byte, peer string) (forkchoice.Verdict, error) {
	if n.Forks != nil {
		return n.Forks.ProcessBlock(raw, peer)
	}
	if _, err := n.SubmitBlockRaw(raw); err != nil {
		return forkchoice.Rejected, err
	}
	return forkchoice.Connected, nil
}
