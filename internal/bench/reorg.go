package bench

import (
	"fmt"
	"io"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/node"
)

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// AblationReorg measures the cost of switching branches — the
// fork-choice engine's critical path — as a function of reorg depth.
// For each depth d the experiment disconnects the top d blocks of a
// fully synced node and reconnects them, timing both phases. The
// comparison isolates the paper's design difference: EBV disconnects
// restore unspent bits straight from the block's own input bodies (no
// auxiliary state), while the baseline must load and replay persisted
// undo records against the UTXO database.
//
// Results are also written as BENCH_reorg.json into
// Options.ArtifactDir.
func (e *Env) AblationReorg(w io.Writer) error {
	type row struct {
		Depth        int    `json:"depth"`
		System       string `json:"system"` // "ebv" or "bitcoin"
		DisconnectNS int64  `json:"disconnect_ns"`
		ReconnectNS  int64  `json:"reconnect_ns"`
		RoundTripNS  int64  `json:"round_trip_ns"`
	}
	depths := []int{1, 2, 8, 32}
	var rows []row

	// One node per system, synced once; the depth sweep reuses it (each
	// cycle ends exactly where it started, which the sanity checks pin).
	ebvDir, err := e.TempNodeDir()
	if err != nil {
		return err
	}
	en, err := node.NewEBVNode(e.EBVNodeConfig(ebvDir))
	if err != nil {
		return err
	}
	defer en.Close()
	if _, err := node.RunIBDEBV(e.EBVChain, en, 0, nil); err != nil {
		return err
	}
	btcDir, err := e.TempNodeDir()
	if err != nil {
		return err
	}
	bn, err := node.NewBitcoinNode(node.Config{
		Dir: btcDir, MemLimit: e.Opts.MemLimit,
		ReadLatency: e.Opts.ReadLatency, Scheme: e.Opts.Scheme(),
	})
	if err != nil {
		return err
	}
	defer bn.Close()
	if _, err := node.RunIBDBitcoin(e.ClassicChain, bn, 0, nil); err != nil {
		return err
	}

	t := newTable("depth", "ebv-disc", "ebv-conn", "btc-disc", "btc-conn", "btc/ebv-disc")
	for _, d := range depths {
		if d > e.Opts.Blocks/2 {
			fmt.Fprintf(w, "skipping depth %d: chain of %d blocks is too short\n", d, e.Opts.Blocks)
			continue
		}
		ebvDisc, ebvConn, err := e.reorgCycleEBV(en, d)
		if err != nil {
			return fmt.Errorf("ebv depth %d: %w", d, err)
		}
		btcDisc, btcConn, err := e.reorgCycleBitcoin(bn, d)
		if err != nil {
			return fmt.Errorf("bitcoin depth %d: %w", d, err)
		}
		rows = append(rows,
			row{d, "ebv", int64(ebvDisc), int64(ebvConn), int64(ebvDisc + ebvConn)},
			row{d, "bitcoin", int64(btcDisc), int64(btcConn), int64(btcDisc + btcConn)},
		)
		ratio := "n/a"
		if ebvDisc > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(btcDisc)/float64(ebvDisc))
		}
		t.row(d, ebvDisc, ebvConn, btcDisc, btcConn, ratio)
	}
	t.write(w, "Ablation: reorg cost vs depth (disconnect + reconnect, same blocks)")
	fmt.Fprintln(w, "EBV restores bits from the disconnected block's own bodies; the baseline replays persisted undo records.")

	return e.emit("reorg", rows)
}

// reorgCycleEBV disconnects d tip blocks and reconnects the same
// blocks, returning both phases' wall times. State must round-trip
// exactly (unspent count against ground truth).
func (e *Env) reorgCycleEBV(n *node.EBVNode, d int) (disc, conn time.Duration, err error) {
	tip, ok := n.Chain.TipHeight()
	if !ok || int(tip)+1 < d {
		return 0, 0, fmt.Errorf("chain too short for depth %d", d)
	}
	// Detach the raws first: truncation frees the store's view.
	raws := make([][]byte, 0, d)
	for h := tip - uint64(d) + 1; h <= tip; h++ {
		raw, err := n.Chain.BlockBytes(h)
		if err != nil {
			return 0, 0, err
		}
		raws = append(raws, append([]byte(nil), raw...))
	}
	disc, err = timed(func() error {
		for i := 0; i < d; i++ {
			if err := n.DisconnectTip(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	conn, err = timed(func() error {
		for _, raw := range raws {
			blk, err := blockmodel.DecodeEBVBlock(raw)
			if err != nil {
				return err
			}
			if _, err := n.SubmitBlock(blk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if got, want := int(n.Status.UnspentCount()), e.Gen.UTXOCount(); got != want {
		return 0, 0, fmt.Errorf("unspent bits %d != ground truth %d after round trip", got, want)
	}
	return disc, conn, nil
}

// reorgCycleBitcoin is the baseline mirror of reorgCycleEBV.
func (e *Env) reorgCycleBitcoin(n *node.BitcoinNode, d int) (disc, conn time.Duration, err error) {
	tip, ok := n.Chain.TipHeight()
	if !ok || int(tip)+1 < d {
		return 0, 0, fmt.Errorf("chain too short for depth %d", d)
	}
	raws := make([][]byte, 0, d)
	for h := tip - uint64(d) + 1; h <= tip; h++ {
		raw, err := n.Chain.BlockBytes(h)
		if err != nil {
			return 0, 0, err
		}
		raws = append(raws, append([]byte(nil), raw...))
	}
	disc, err = timed(func() error {
		for i := 0; i < d; i++ {
			if err := n.DisconnectTip(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	conn, err = timed(func() error {
		for _, raw := range raws {
			blk, err := blockmodel.DecodeClassicBlock(raw)
			if err != nil {
				return err
			}
			if _, err := n.SubmitBlock(blk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if got, want := int(n.UTXO.Count()), e.Gen.UTXOCount(); got != want {
		return 0, 0, fmt.Errorf("UTXO count %d != ground truth %d after round trip", got, want)
	}
	return disc, conn, nil
}
