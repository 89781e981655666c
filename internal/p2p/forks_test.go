package p2p

import (
	"bytes"
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/forkchoice"
	"ebv/internal/node"
	"ebv/internal/p2p/wire"
	"ebv/internal/proof"
	"ebv/internal/workload"
)

// forkRaws is a shared prefix plus two competing valid branches, as
// serialized blocks. The fork point sits above coinbase maturity so
// the branches actually diverge (earlier blocks are coinbase-only and
// therefore seed-independent). Branch B is the longer, heavier one.
type forkRaws struct {
	prefixC, prefixE [][]byte
	aC, aE           [][]byte
	bC, bE           [][]byte
}

func buildForkRaws(t testing.TB, forkAt, lenA, lenB int) *forkRaws {
	t.Helper()
	total := forkAt + lenA
	if forkAt+lenB > total {
		total = forkAt + lenB
	}
	genA := workload.NewGenerator(workload.TestParams(total))
	genB := workload.NewGenerator(workload.TestParams(total))
	imA, err := proof.NewIntermediary(t.TempDir(), genA.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { imA.Close() })
	imB, err := proof.NewIntermediary(t.TempDir(), genB.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { imB.Close() })

	c := &forkRaws{}
	render := func(g *workload.Generator, im *proof.Intermediary) (classic, ebv []byte) {
		cb, err := g.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := im.ProcessBlock(cb)
		if err != nil {
			t.Fatal(err)
		}
		return cb.Encode(nil), eb.Encode(nil)
	}
	for h := 0; h < forkAt; h++ {
		rawC, rawE := render(genA, imA)
		render(genB, imB) // keep B's stream in lockstep through the shared prefix
		c.prefixC = append(c.prefixC, rawC)
		c.prefixE = append(c.prefixE, rawE)
	}
	genB.Reseed(4242)
	for i := 0; i < lenA; i++ {
		rawC, rawE := render(genA, imA)
		c.aC = append(c.aC, rawC)
		c.aE = append(c.aE, rawE)
	}
	for i := 0; i < lenB; i++ {
		rawC, rawE := render(genB, imB)
		c.bC = append(c.bC, rawC)
		c.bE = append(c.bE, rawE)
	}
	if bytes.Equal(c.aC[0], c.bC[0]) {
		t.Fatal("branches did not diverge at the fork point")
	}
	return c
}

// newForkEBVNode creates an EBV node with a fork-choice engine, feeds
// it blocks, and wraps it for gossip with the engine wired in.
func newForkEBVNode(t *testing.T, raws ...[][]byte) (*Node, *node.EBVNode, *forkchoice.Engine) {
	t.Helper()
	en, err := node.NewEBVNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	eng := en.EnableForkChoice(forkchoice.Config{})
	for _, set := range raws {
		for _, raw := range set {
			if _, err := en.AcceptBlock(raw, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	gn := NewNode(EBVChain{Node: en}, Config{Forks: eng})
	if _, err := gn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gn.Close() })
	return gn, en, eng
}

// TestPartitionHealEBVOverTCP simulates a network partition healing:
// two fork-choice EBV nodes sit on competing branches (A short, B
// heavy); on connect, the tip-work handshake makes the lighter node
// discover the heavier branch via getheaders/getdata and reorg onto
// it, converging byte-for-byte with the winner — which stays put.
func TestPartitionHealEBVOverTCP(t *testing.T) {
	c := buildForkRaws(t, 110, 2, 4)

	gA, nA, engA := newForkEBVNode(t, c.prefixE, c.aE) // lighter half
	gB, nB, engB := newForkEBVNode(t, c.prefixE, c.bE) // heavier half
	wantTip := nB.Chain.TipHash()

	if err := gA.Connect(gB.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partition heal", func() bool {
		return nA.Chain.TipHash() == wantTip
	})

	// A switched; B never moved.
	if st := engA.Stats(); st.Reorgs != 1 || st.DeepestReorg != 2 {
		t.Fatalf("lighter node stats: %+v", st)
	}
	if st := engB.Stats(); st.Reorgs != 0 {
		t.Fatalf("heavier node must not reorg: %+v", st)
	}
	if nB.Chain.TipHash() != wantTip {
		t.Fatal("heavier node's tip changed")
	}
	// Full convergence: every stored block byte-identical.
	if nA.Chain.Count() != nB.Chain.Count() {
		t.Fatalf("chain lengths differ: %d vs %d", nA.Chain.Count(), nB.Chain.Count())
	}
	for h := uint64(0); h < uint64(nB.Chain.Count()); h++ {
		ra, _ := nA.Chain.BlockBytes(h)
		rb, _ := nB.Chain.BlockBytes(h)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("stored block %d differs after heal", h)
		}
	}
	if nA.Status.UnspentCount() != nB.Status.UnspentCount() {
		t.Fatal("status databases diverged after heal")
	}
	if gA.PeerCount() != 1 || gB.PeerCount() != 1 {
		t.Fatalf("heal must keep the connection: A=%d B=%d peers", gA.PeerCount(), gB.PeerCount())
	}
}

// TestPartitionHealClassicOverTCP runs the same heal through baseline
// nodes — undo-record disconnects instead of bit-vector restores —
// dialed from the heavier side, so it is the *accepting* node's
// handshake work comparison that triggers the sync.
func TestPartitionHealClassicOverTCP(t *testing.T) {
	c := buildForkRaws(t, 110, 1, 3)

	mk := func(raws ...[][]byte) (*Node, *node.BitcoinNode, *forkchoice.Engine) {
		bn, err := node.NewBitcoinNode(node.Config{Dir: t.TempDir(), MemLimit: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bn.Close() })
		eng := bn.EnableForkChoice(forkchoice.Config{})
		for _, set := range raws {
			for _, raw := range set {
				if _, err := bn.AcceptBlock(raw, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		gn := NewNode(BitcoinChain{Node: bn}, Config{Forks: eng})
		if _, err := gn.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gn.Close() })
		return gn, bn, eng
	}
	gA, nA, engA := mk(c.prefixC, c.aC) // lighter half
	gB, nB, _ := mk(c.prefixC, c.bC)    // heavier half
	wantTip := nB.Chain.TipHash()

	if err := gB.Connect(gA.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "classic partition heal", func() bool {
		return nA.Chain.TipHash() == wantTip
	})
	if st := engA.Stats(); st.Reorgs != 1 || st.DeepestReorg != 1 {
		t.Fatalf("lighter node stats: %+v", st)
	}
	if nA.UTXO.Count() != nB.UTXO.Count() {
		t.Fatalf("UTXO counts differ after heal: %d vs %d", nA.UTXO.Count(), nB.UTXO.Count())
	}
	for h := uint64(0); h < uint64(nB.Chain.Count()); h++ {
		ra, _ := nA.Chain.BlockBytes(h)
		rb, _ := nB.Chain.BlockBytes(h)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("stored block %d differs after heal", h)
		}
	}
}

// TestUnsolicitedOrphanTriggersGetHeaders pins the gossip hygiene for
// a block whose parent is unknown: the node must park it as an orphan
// and come back with a getheaders carrying its locator — not drop the
// peer, not drop the block silently — and, once the branch is served,
// adopt the parked orphan into the reorg.
func TestUnsolicitedOrphanTriggersGetHeaders(t *testing.T) {
	c := buildForkRaws(t, 110, 1, 3)
	honest, en, eng := newForkEBVNode(t, c.prefixE, c.aE)

	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	// Advertise fork-choice but no work: the node sees itself heavier
	// and requests nothing at the handshake.
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: 0, Features: wire.FeatureForkChoice}); err != nil {
		t.Fatal(err)
	}
	hello, err := conn.read()
	if err != nil || hello.Kind != wire.Hello {
		t.Fatalf("handshake: %+v, %v", hello, err)
	}
	if hello.Features&wire.FeatureForkChoice == 0 {
		t.Fatal("fork-choice node must advertise the feature bit")
	}
	if len(hello.TipWork) == 0 {
		t.Fatal("fork-choice hello must carry tip work")
	}

	// bE[1]'s parent (bE[0]) is unknown to the node.
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: 111, Payload: c.bE[1]}); err != nil {
		t.Fatal(err)
	}
	got, err := conn.read()
	if err != nil {
		t.Fatalf("node must answer an orphan with getheaders, not drop us: %v", err)
	}
	if got.Kind != wire.GetHeaders {
		t.Fatalf("want getheaders after orphan, got kind %d", got.Kind)
	}
	if len(got.Hashes) == 0 || got.Hashes[0] != en.Chain.TipHash() {
		t.Fatal("locator must lead with the node's tip")
	}
	if st := eng.Stats(); st.Orphans != 1 {
		t.Fatalf("orphan must be parked, stats: %+v", st)
	}
	if honest.PeerCount() != 1 {
		t.Fatal("orphan block must not drop the peer")
	}

	// Answer the getheaders with branch B's headers; the node fetches
	// the bodies it lacks via getdata, adopts the parked orphan, and
	// reorgs onto the heavier branch.
	var payload []byte
	for _, raw := range c.bE {
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		payload = blk.Header.Encode(payload)
	}
	if err := conn.send(&wire.Message{Kind: wire.Headers, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	gd, err := conn.read()
	if err != nil || gd.Kind != wire.GetData {
		t.Fatalf("want getdata for the unknown bodies: %+v, %v", gd, err)
	}
	// The parked orphan (bE[1]) is already known; only the rest are
	// requested.
	if len(gd.Hashes) != len(c.bE)-1 {
		t.Fatalf("getdata for %d hashes, want %d", len(gd.Hashes), len(c.bE)-1)
	}
	for i, raw := range c.bE {
		if i == 1 {
			continue
		}
		if err := conn.send(&wire.Message{Kind: wire.Block, Height: uint64(110 + i), Payload: raw}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "reorg onto the served branch", func() bool {
		tip, ok := en.Chain.TipHeight()
		return ok && tip == uint64(110+len(c.bE)-1)
	})
	if st := eng.Stats(); st.Reorgs != 1 {
		t.Fatalf("stats after served reorg: %+v", st)
	}
}

// TestPerPeerOrphanCapOverTCP: duplicate orphan deliveries must not
// inflate the orphan store, and an orphan-spraying peer stays within
// its per-peer allowance without being dropped.
func TestPerPeerOrphanCapOverTCP(t *testing.T) {
	c := buildForkRaws(t, 110, 1, 3)
	honest, _, eng := newForkEBVNode(t, c.prefixE, c.aE)

	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: 0, Features: wire.FeatureForkChoice}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}

	// Spray the same orphan repeatedly plus a second one: each *new*
	// orphan answers with a getheaders; duplicates are absorbed.
	for i := 0; i < 3; i++ {
		if err := conn.send(&wire.Message{Kind: wire.Block, Height: 111, Payload: c.bE[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: 112, Payload: c.bE[2]}); err != nil {
		t.Fatal(err)
	}
	// Drain the getheaders responses; the stream going quiet ends the
	// loop.
	gh := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		conn.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		m, err := conn.read()
		if err != nil {
			break
		}
		if m.Kind == wire.GetHeaders {
			gh++
		}
	}
	if gh != 2 {
		t.Fatalf("want one getheaders per distinct orphan, got %d", gh)
	}
	if st := eng.Stats(); st.Orphans != 2 {
		t.Fatalf("want 2 distinct parked orphans, stats: %+v", st)
	}
	if honest.PeerCount() != 1 {
		t.Fatal("orphan spray within the cap must not drop the peer")
	}
}
