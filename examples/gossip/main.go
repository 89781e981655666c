// Gossip: real EBV nodes syncing and relaying blocks over TCP.
//
// This example runs the paper's network story end to end on localhost:
// a seed node holds a chain; fresh nodes join, perform initial block
// download through the gossip protocol (validating every block), and
// then a newly mined block — built from a live mempool — relays
// through the network, each hop validating before forwarding.
//
// Run with:
//
//	go run ./examples/gossip
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"ebv"
)

func main() {
	tmp, err := os.MkdirTemp("", "ebv-gossip-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Build a chain and preload the seed node.
	const blocks = 300
	gen := ebv.NewGenerator(ebv.TestWorkload(blocks))
	inter, err := ebv.NewIntermediary(tmp+"/inter", gen.Resign)
	if err != nil {
		log.Fatal(err)
	}
	defer inter.Close()
	seedNode, err := ebv.NewEBVNode(ebv.NodeConfig{Dir: tmp + "/seed"})
	if err != nil {
		log.Fatal(err)
	}
	defer seedNode.Close()
	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err != nil {
			log.Fatal(err)
		}
		eb, err := inter.ProcessBlock(cb)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := seedNode.SubmitBlock(eb); err != nil {
			log.Fatal(err)
		}
	}

	// Start the seed and three fresh nodes in a line:
	// seed — n1 — n2 — n3.
	var arrivalMu sync.Mutex
	arrival := map[string]time.Time{}
	mkNode := func(name, dir string) (*ebv.GossipNode, *ebv.EBVNode) {
		n, err := ebv.NewEBVNode(ebv.NodeConfig{Dir: dir})
		if err != nil {
			log.Fatal(err)
		}
		g := ebv.NewGossipNode(ebv.EBVGossipChain{Node: n}, ebv.GossipConfig{
			OnBlock: func(h uint64, from string) {
				if h == blocks { // the block mined below
					arrivalMu.Lock()
					arrival[name] = time.Now()
					arrivalMu.Unlock()
				}
			},
		})
		if _, err := g.Start(); err != nil {
			log.Fatal(err)
		}
		return g, n
	}
	seedGossip := ebv.NewGossipNode(ebv.EBVGossipChain{Node: seedNode}, ebv.GossipConfig{})
	if _, err := seedGossip.Start(); err != nil {
		log.Fatal(err)
	}
	defer seedGossip.Close()
	g1, n1 := mkNode("n1", tmp+"/n1")
	g2, n2 := mkNode("n2", tmp+"/n2")
	g3, n3 := mkNode("n3", tmp+"/n3")
	defer g1.Close()
	defer g2.Close()
	defer g3.Close()
	defer n1.Close()
	defer n2.Close()
	defer n3.Close()

	start := time.Now()
	if err := g1.Connect(seedGossip.Addr()); err != nil {
		log.Fatal(err)
	}
	if err := g2.Connect(g1.Addr()); err != nil {
		log.Fatal(err)
	}
	if err := g3.Connect(g2.Addr()); err != nil {
		log.Fatal(err)
	}
	waitForTip(n3, blocks-1)
	fmt.Printf("3 fresh nodes synced %d blocks over TCP in %v\n", blocks, time.Since(start).Round(time.Millisecond))
	fmt.Printf("n3 state: %d unspent outputs, %.1f KB bit-vector set\n",
		n3.Status.UnspentCount(), float64(n3.Status.MemUsage())/1024)

	// Mine a fresh block on the seed from a live mempool transaction
	// and watch it relay down the line.
	pool := ebv.NewMempool(seedNode.Validator, ebv.MempoolConfig{})
	builder := ebv.NewProofBuilder(seedNode.Chain, 8)
	scheme := gen.Scheme()
	for h := uint64(0); h+100 < blocks; h++ {
		ok, err := seedNode.Status.IsUnspent(h, 0)
		if err != nil || !ok {
			continue
		}
		body, err := builder.Prove(ebv.TxLoc{Height: h, TxIndex: 0}, 0)
		if err != nil {
			log.Fatal(err)
		}
		payee := scheme.KeyFromSeed([]byte("payee"))
		tx := &ebv.EBVTx{
			Tidy: ebv.TidyTx{Version: 1, Outputs: []ebv.TxOut{{
				Value: body.PrevTx.Outputs[0].Value - 2_000, LockScript: ebv.StandardLock(payee),
			}}},
			Bodies: []ebv.InputBody{body},
		}
		key := scheme.KeyFromSeed(ebv.OutputKeySeed(h, 0, 0))
		unlock, err := ebv.StandardUnlock(key, tx.SigHash())
		if err != nil {
			log.Fatal(err)
		}
		tx.Bodies[0].UnlockScript = unlock
		tx.SealInputHashes()
		if _, err := pool.Add(tx); err != nil {
			log.Fatal(err)
		}
		break
	}
	txs, fees := pool.BuildTemplate(0)
	miner := scheme.KeyFromSeed([]byte("miner"))
	coinbase := &ebv.EBVTx{Tidy: ebv.TidyTx{
		Outputs:  []ebv.TxOut{{Value: ebv.Subsidy(blocks) + fees, LockScript: ebv.StandardLock(miner)}},
		LockTime: uint32(blocks),
	}}
	blk, err := ebv.AssembleEBVBlock(seedNode.Chain.TipHash(), blocks, 0, append([]*ebv.EBVTx{coinbase}, txs...))
	if err != nil {
		log.Fatal(err)
	}
	mined := time.Now()
	if err := seedGossip.SubmitLocal(blk.Encode(nil)); err != nil {
		log.Fatal(err)
	}
	waitForTip(n3, blocks)
	pool.BlockConnected(blk)

	fmt.Printf("\nmined block %d with %d mempool tx(s), fees %d\n", blocks, len(txs), fees)
	arrivalMu.Lock()
	for _, name := range []string{"n1", "n2", "n3"} {
		if at, ok := arrival[name]; ok {
			fmt.Printf("  %s received it after %v (one validation per hop)\n", name, at.Sub(mined).Round(time.Microsecond))
		}
	}
	arrivalMu.Unlock()
}

func waitForTip(n *ebv.EBVNode, want uint64) {
	for {
		if got, ok := n.Chain.TipHeight(); ok && got >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
