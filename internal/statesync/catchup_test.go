package statesync_test

import (
	"fmt"
	"testing"

	"ebv/internal/node"
	"ebv/internal/statesync"
)

// TestCatchUpReplaysToSourceTip: node.RunIBDEBV resumes from the
// node's own tip, so from an empty node it is a full pipelined IBD and
// from the tip a no-op; state always matches ground truth.
func TestCatchUpReplaysToSourceTip(t *testing.T) {
	g, src := buildChain(t, 150)
	tip, _ := src.TipHeight()

	n, err := node.NewEBVNode(node.Config{Dir: t.TempDir(), PipelineDepth: 4, ParallelValidation: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	res, err := node.RunIBDEBV(src, n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) != 1 || res.Periods[0].StartHeight != 0 || res.Periods[0].EndHeight != tip {
		t.Fatalf("replayed periods %+v, want one over [0..%d]", res.Periods, tip)
	}
	if int(n.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("unspent %d != ground truth %d", n.Status.UnspentCount(), g.UTXOCount())
	}
	if res.Total.Inputs == 0 || res.Wall <= 0 {
		t.Fatalf("replay must account its work: %+v", res)
	}

	// Already current: nothing to replay.
	res2, err := node.RunIBDEBV(src, n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Periods) != 0 {
		t.Fatalf("at-tip replay ran %+v", res2.Periods)
	}
}

// TestNodeFastSyncWithCatchUp is the full bootstrap shape the ebvnode
// flags wire up: snapshot install from a peer, then RunIBDEBV over the
// local source chain from the snapshot tip, sequential or pipelined —
// the node ends at the source tip with ground-truth state.
func TestNodeFastSyncWithCatchUp(t *testing.T) {
	g, src := buildChain(t, 60)
	tip, _ := src.TipHeight()
	addr, _ := newServedNode(t, src, tip-9, 16)

	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			client, err := node.NewEBVNode(node.Config{
				Dir:           t.TempDir(),
				PipelineDepth: depth,
				FastSync:      &statesync.Config{Peers: []string{addr}, Parallel: 2, Logf: t.Logf},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			if client.FastSyncResult == nil || client.FastSyncResult.TipHeight != tip-10 {
				t.Fatalf("bootstrap result %+v, want tip %d", client.FastSyncResult, tip-10)
			}
			res, err := node.RunIBDEBV(src, client, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Periods) != 1 || res.Periods[0].StartHeight != tip-9 || res.Periods[0].EndHeight != tip {
				t.Fatalf("replayed periods %+v, want one over [%d..%d]", res.Periods, tip-9, tip)
			}
			if got, _ := client.Chain.TipHeight(); got != tip {
				t.Fatalf("client tip %d, want %d", got, tip)
			}
			if int(client.Status.UnspentCount()) != g.UTXOCount() {
				t.Fatalf("unspent %d != ground truth %d", client.Status.UnspentCount(), g.UTXOCount())
			}
		})
	}
}
