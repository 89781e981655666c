package node

import (
	"bytes"
	"errors"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/forkchoice"
	"ebv/internal/proof"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// forkCorpus is one shared prefix plus two competing valid branches,
// rendered as both classic and EBV serialized blocks. Branch blocks
// occupy heights forkAt..; branch B is the longer (heavier) one in
// every test below.
type forkCorpus struct {
	forkAt           int
	prefixC, prefixE [][]byte
	aC, aE           [][]byte
	bC, bE           [][]byte
}

// buildForkCorpus runs two generators with identical Params — which
// makes their histories byte-identical — through height forkAt-1, then
// reseeds one so the streams diverge into two valid branches of the
// same logical economy (prefix outputs stay spendable on both sides;
// see workload.Generator.Reseed).
func buildForkCorpus(t testing.TB, forkAt, lenA, lenB int) *forkCorpus {
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

	c := &forkCorpus{forkAt: forkAt}
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
		rawC2, _ := render(genB, imB)
		if !bytes.Equal(rawC, rawC2) {
			t.Fatalf("prefix diverged at height %d", h)
		}
		c.prefixC = append(c.prefixC, rawC)
		c.prefixE = append(c.prefixE, rawE)
	}
	genB.Reseed(1337)
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

func mustAccept(t *testing.T, v forkchoice.Verdict, err error, want forkchoice.Verdict, what string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if v != want {
		t.Fatalf("%s: verdict %s, want %s", what, v, want)
	}
}

// TestForkChoiceEBVEquivalence is the PR's core invariant: a node that
// connects branch A and then reorgs to the heavier branch B must end
// byte-identical — status database and chain store — to a fresh node
// that connected B directly.
func TestForkChoiceEBVEquivalence(t *testing.T) {
	c := buildForkCorpus(t, 110, 2, 4)

	nAB, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer nAB.Close()
	eng := nAB.EnableForkChoice(forkchoice.Config{})

	for h, raw := range c.prefixE {
		v, err := nAB.AcceptBlock(raw, "")
		mustAccept(t, v, err, forkchoice.Connected, "prefix block")
		_ = h
	}
	for _, raw := range c.aE {
		v, err := nAB.AcceptBlock(raw, "")
		mustAccept(t, v, err, forkchoice.Connected, "branch A block")
	}
	// Branch B arrives: two side blocks (the second only ties A's work,
	// and ties never reorg), then the switch, then a plain extension.
	wantVerdicts := []forkchoice.Verdict{
		forkchoice.SideStored, forkchoice.SideStored, forkchoice.Reorged, forkchoice.Connected,
	}
	for i, raw := range c.bE {
		v, err := nAB.AcceptBlock(raw, "peerB")
		mustAccept(t, v, err, wantVerdicts[i], "branch B block")
	}
	st := eng.Stats()
	if st.Reorgs != 1 || st.DeepestReorg != 2 || st.FailedReorgs != 0 {
		t.Fatalf("stats after switch: %+v", st)
	}

	// Fresh node connecting B directly, without any fork-choice engine.
	nB, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer nB.Close()
	for _, raw := range append(append([][]byte{}, c.prefixE...), c.bE...) {
		v, err := nB.AcceptBlock(raw, "")
		mustAccept(t, v, err, forkchoice.Connected, "fresh node block")
	}

	if nAB.Chain.TipHash() != nB.Chain.TipHash() {
		t.Fatal("tip hashes differ after reorg")
	}
	if nAB.Chain.Count() != nB.Chain.Count() {
		t.Fatalf("chain lengths differ: %d vs %d", nAB.Chain.Count(), nB.Chain.Count())
	}
	for h := uint64(0); h < uint64(nB.Chain.Count()); h++ {
		ra, _ := nAB.Chain.BlockBytes(h)
		rb, _ := nB.Chain.BlockBytes(h)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("stored block %d differs", h)
		}
	}
	var sAB, sB bytes.Buffer
	if err := nAB.Status.Save(&sAB); err != nil {
		t.Fatal(err)
	}
	if err := nB.Status.Save(&sB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sAB.Bytes(), sB.Bytes()) {
		t.Fatal("status databases differ after reorg")
	}
}

// TestForkChoiceEBVFailedSwitchRestoresState corrupts the block of
// branch B that tips the work balance. The attempted switch must roll
// back to the exact pre-reorg state, the corrupt block must never be
// retried, and an honest replacement for it must still win.
func TestForkChoiceEBVFailedSwitchRestoresState(t *testing.T) {
	c := buildForkCorpus(t, 110, 2, 4)

	n, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	eng := n.EnableForkChoice(forkchoice.Config{})
	for _, raw := range append(append([][]byte{}, c.prefixE...), c.aE...) {
		v, err := n.AcceptBlock(raw, "")
		mustAccept(t, v, err, forkchoice.Connected, "setup block")
	}
	preTip := n.Chain.TipHash()
	var pre bytes.Buffer
	if err := n.Status.Save(&pre); err != nil {
		t.Fatal(err)
	}

	// A coinbase claiming more than subsidy+fees: structurally fine, so
	// it passes header checks and fails only inside block validation —
	// after the old branch has already been disconnected.
	blk, err := blockmodel.DecodeEBVBlock(c.bE[2])
	if err != nil {
		t.Fatal(err)
	}
	blk.Txs[0].Tidy.Outputs[0].Value += 1_000_000
	evil, err := blockmodel.AssembleEBV(blk.Header.PrevBlock, blk.Header.Height, blk.Header.TimeStamp, blk.Txs)
	if err != nil {
		t.Fatal(err)
	}
	evilRaw := evil.Encode(nil)

	v, err := n.AcceptBlock(c.bE[0], "peerB")
	mustAccept(t, v, err, forkchoice.SideStored, "bE[0]")
	v, err = n.AcceptBlock(c.bE[1], "peerB")
	mustAccept(t, v, err, forkchoice.SideStored, "bE[1]")
	v, err = n.AcceptBlock(evilRaw, "peerB")
	if v != forkchoice.Rejected || !errors.Is(err, core.ErrBadSubsidy) {
		t.Fatalf("evil block: verdict %s, err %v", v, err)
	}

	if n.Chain.TipHash() != preTip {
		t.Fatal("failed switch must restore the old tip")
	}
	var post bytes.Buffer
	if err := n.Status.Save(&post); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre.Bytes(), post.Bytes()) {
		t.Fatal("failed switch must restore the status database byte-for-byte")
	}
	if st := eng.Stats(); st.FailedReorgs != 1 || st.Reorgs != 0 {
		t.Fatalf("stats after failed switch: %+v", st)
	}

	// The corrupt block is never validated again.
	v, err = n.AcceptBlock(evilRaw, "peerB")
	if v != forkchoice.Rejected || !errors.Is(err, forkchoice.ErrKnownInvalid) {
		t.Fatalf("refed evil block: verdict %s, err %v", v, err)
	}

	// The honest blocks at the same heights still win: the side store
	// kept bE[0] and bE[1] across the failed attempt.
	v, err = n.AcceptBlock(c.bE[2], "peerB")
	mustAccept(t, v, err, forkchoice.Reorged, "honest bE[2]")
	v, err = n.AcceptBlock(c.bE[3], "peerB")
	mustAccept(t, v, err, forkchoice.Connected, "bE[3]")
	if st := eng.Stats(); st.Reorgs != 1 {
		t.Fatalf("stats after honest switch: %+v", st)
	}

	// And the end state matches a fresh branch-B node.
	nB, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer nB.Close()
	for _, raw := range append(append([][]byte{}, c.prefixE...), c.bE...) {
		if v, err := nB.AcceptBlock(raw, ""); err != nil || v != forkchoice.Connected {
			t.Fatalf("fresh node: %s %v", v, err)
		}
	}
	var sA, sB bytes.Buffer
	if err := n.Status.Save(&sA); err != nil {
		t.Fatal(err)
	}
	if err := nB.Status.Save(&sB); err != nil {
		t.Fatal(err)
	}
	if n.Chain.TipHash() != nB.Chain.TipHash() || !bytes.Equal(sA.Bytes(), sB.Bytes()) {
		t.Fatal("post-recovery state must match a fresh branch-B node")
	}
}

// TestForkChoiceClassicEquivalence runs the same reorg through the
// baseline node: the UTXO database (via its undo records) must land on
// the same state a direct branch-B sync produces.
func TestForkChoiceClassicEquivalence(t *testing.T) {
	c := buildForkCorpus(t, 110, 2, 4)

	nAB, err := NewBitcoinNode(Config{Dir: t.TempDir(), MemLimit: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer nAB.Close()
	eng := nAB.EnableForkChoice(forkchoice.Config{})
	for _, raw := range append(append([][]byte{}, c.prefixC...), c.aC...) {
		v, err := nAB.AcceptBlock(raw, "")
		mustAccept(t, v, err, forkchoice.Connected, "setup block")
	}
	wantVerdicts := []forkchoice.Verdict{
		forkchoice.SideStored, forkchoice.SideStored, forkchoice.Reorged, forkchoice.Connected,
	}
	for i, raw := range c.bC {
		v, err := nAB.AcceptBlock(raw, "peerB")
		mustAccept(t, v, err, wantVerdicts[i], "branch B block")
	}
	if st := eng.Stats(); st.Reorgs != 1 || st.DeepestReorg != 2 {
		t.Fatalf("stats: %+v", st)
	}

	nB, err := NewBitcoinNode(Config{Dir: t.TempDir(), MemLimit: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer nB.Close()
	for _, raw := range append(append([][]byte{}, c.prefixC...), c.bC...) {
		if v, err := nB.AcceptBlock(raw, ""); err != nil || v != forkchoice.Connected {
			t.Fatalf("fresh node: %s %v", v, err)
		}
	}

	if nAB.Chain.TipHash() != nB.Chain.TipHash() {
		t.Fatal("tip hashes differ after classic reorg")
	}
	if nAB.UTXO.Count() != nB.UTXO.Count() {
		t.Fatalf("UTXO counts differ: %d vs %d", nAB.UTXO.Count(), nB.UTXO.Count())
	}
	for h := uint64(0); h < uint64(nB.Chain.Count()); h++ {
		ra, _ := nAB.Chain.BlockBytes(h)
		rb, _ := nB.Chain.BlockBytes(h)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("stored block %d differs", h)
		}
	}
	// Spot-check real entries: every output of B's tip block must be
	// fetchable with identical values on both nodes.
	tipRaw, _ := nB.Chain.BlockBytes(uint64(nB.Chain.Count() - 1))
	tipBlk, err := blockmodel.DecodeClassicBlock(tipRaw)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range tipBlk.Txs {
		txid := tx.TxID()
		for oi := range tx.Outputs {
			op := txmodel.OutPoint{TxID: txid, Index: uint32(oi)}
			ea, errA := nAB.UTXO.Fetch(op)
			eb, errB := nB.UTXO.Fetch(op)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("fetch divergence for %v: %v vs %v", op, errA, errB)
			}
			if errA == nil && (ea.Value != eb.Value || ea.Height != eb.Height) {
				t.Fatalf("entry divergence for %v", op)
			}
		}
	}
}

// TestAcceptBlockWithoutEngineKeepsSeedBehavior: a node without
// EnableForkChoice accepts only tip extensions — a competing-branch
// block is a plain rejection, exactly the seed behavior.
func TestAcceptBlockWithoutEngineKeepsSeedBehavior(t *testing.T) {
	c := buildForkCorpus(t, 110, 1, 2)
	n, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, raw := range append(append([][]byte{}, c.prefixE...), c.aE...) {
		if v, err := n.AcceptBlock(raw, ""); err != nil || v != forkchoice.Connected {
			t.Fatalf("tip extension: %s %v", v, err)
		}
	}
	v, err := n.AcceptBlock(c.bE[0], "peerB")
	if v != forkchoice.Rejected || err == nil {
		t.Fatalf("competing block without engine: %s %v", v, err)
	}
}
