package node

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/proof"
	"ebv/internal/workload"
)

// buildChains renders one logical history as both chain stores.
func buildChains(t testing.TB, blocks int) (*workload.Generator, *chainstore.Store, *chainstore.Store) {
	t.Helper()
	g := workload.NewGenerator(workload.TestParams(blocks))
	classicChain, err := chainstore.Open(filepath.Join(t.TempDir(), "classic"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { classicChain.Close() })
	im, err := proof.NewIntermediary(t.TempDir(), g.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	for !g.Done() {
		cb, err := g.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := classicChain.Append(cb.Header, cb.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := im.ProcessBlock(cb); err != nil {
			t.Fatal(err)
		}
	}
	return g, classicChain, im.Chain()
}

func TestDualIBDEquivalence(t *testing.T) {
	g, classicChain, ebvChain := buildChains(t, 180)

	btc, err := NewBitcoinNode(Config{Dir: t.TempDir(), MemLimit: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	ebv, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ebv.Close()

	resB, err := RunIBDBitcoin(classicChain, btc, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	resE, err := RunIBDEBV(ebvChain, ebv, 50, nil)
	if err != nil {
		t.Fatal(err)
	}

	if int(btc.UTXO.Count()) != g.UTXOCount() {
		t.Fatalf("baseline UTXO count %d != %d", btc.UTXO.Count(), g.UTXOCount())
	}
	if int(ebv.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("EBV unspent count %d != %d", ebv.Status.UnspentCount(), g.UTXOCount())
	}
	if resB.Total.Inputs != resE.Total.Inputs {
		t.Fatalf("input totals differ: %d vs %d", resB.Total.Inputs, resE.Total.Inputs)
	}
	if len(resB.Periods) != len(resE.Periods) || len(resB.Periods) != 4 {
		t.Fatalf("period counts: %d vs %d", len(resB.Periods), len(resE.Periods))
	}
	if resB.Periods[0].StartHeight != 0 || resB.Periods[0].EndHeight != 49 {
		t.Fatalf("period bounds: %+v", resB.Periods[0])
	}
	if resB.Periods[3].EndHeight != 179 {
		t.Fatalf("last period: %+v", resB.Periods[3])
	}
	// Baseline DBO must be nonzero; EBV DBO must be zero.
	if resB.Total.DBO == 0 {
		t.Fatal("baseline must spend time in DBO")
	}
	if resE.Total.DBO != 0 {
		t.Fatal("EBV must not report DBO time")
	}
	// The chains were stored as a side effect.
	if btc.Chain.Count() != 180 || ebv.Chain.Count() != 180 {
		t.Fatalf("chains: %d / %d", btc.Chain.Count(), ebv.Chain.Count())
	}
}

func TestIBDFailsOnCorruptBlock(t *testing.T) {
	_, classicChain, _ := buildChains(t, 30)
	dir := t.TempDir()
	corrupt, err := chainstore.Open(filepath.Join(dir, "bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	for h := uint64(0); h < 30; h++ {
		raw, _ := classicChain.BlockBytes(h)
		hdr, _ := classicChain.Header(h)
		if h == 20 {
			raw = raw[:len(raw)-3] // truncate one block
		}
		if err := corrupt.Append(hdr, raw); err != nil {
			t.Fatal(err)
		}
	}
	btc, err := NewBitcoinNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	if _, err := RunIBDBitcoin(corrupt, btc, 0, nil); err == nil {
		t.Fatal("corrupt chain must abort IBD")
	}
}

func TestReadLatencyRaisesBaselineDBO(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	_, classicChain, _ := buildChains(t, 150)

	run := func(lat time.Duration) time.Duration {
		n, err := NewBitcoinNode(Config{Dir: t.TempDir(), MemLimit: 1 << 18, ReadLatency: lat})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		res, err := RunIBDBitcoin(classicChain, n, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.DBO
	}
	fast := run(0)
	slow := run(500 * time.Microsecond)
	if slow <= fast {
		t.Fatalf("injected latency must raise DBO: %v vs %v", slow, fast)
	}
}

// TestEBVNoOptUsesMoreMemory replays a chain and compares the status
// set's footprint (MemUsage, the sparse-optimized encodings) with what
// the same vectors would take encoded densely (DenseUsage, the no-opt
// line of Fig. 14).
func TestEBVNoOptUsesMoreMemory(t *testing.T) {
	_, _, ebvChain := buildChains(t, 150)
	n, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := RunIBDEBV(ebvChain, n, 0, nil); err != nil {
		t.Fatal(err)
	}
	if opt, noOpt := n.StatusMemUsage(), n.Status.DenseUsage(); opt >= noOpt {
		t.Fatalf("optimization must reduce memory: %d vs %d", opt, noOpt)
	}
}

func TestProgressCallback(t *testing.T) {
	_, classicChain, _ := buildChains(t, 60)
	btc, err := NewBitcoinNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	var calls []PeriodStats
	if _, err := RunIBDBitcoin(classicChain, btc, 25, func(p PeriodStats) { calls = append(calls, p) }); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("progress calls: %d", len(calls))
	}
	if calls[2].StartHeight != 50 || calls[2].EndHeight != 59 {
		t.Fatalf("last period %+v", calls[2])
	}
}

func TestEmptySourceIBD(t *testing.T) {
	empty, err := chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	btc, err := NewBitcoinNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	res, err := RunIBDBitcoin(empty, btc, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) != 0 {
		t.Fatal("empty source must produce no periods")
	}
}

func TestEBVNodeRestartResumes(t *testing.T) {
	_, _, ebvChain := buildChains(t, 120)
	dir := t.TempDir()

	// First session: sync half the chain, then close (snapshots state).
	n1, err := NewEBVNode(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(0); h < 60; h++ {
		raw, _ := ebvChain.BlockBytes(h)
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n1.SubmitBlock(blk); err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
	}
	half := n1.Status.UnspentCount()
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session: reopen, resume IBD to the tip.
	n2, err := NewEBVNode(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.Status.UnspentCount() != half {
		t.Fatalf("snapshot lost: %d vs %d", n2.Status.UnspentCount(), half)
	}
	res, err := RunIBDEBV(ebvChain, n2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Chain.Count() != 120 {
		t.Fatalf("chain count %d", n2.Chain.Count())
	}
	if res.Total.Txs == 0 {
		t.Fatal("resume must process the remaining blocks")
	}

	// Third session: fully synced node resumes to a no-op.
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	n3, err := NewEBVNode(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	res3, err := RunIBDEBV(ebvChain, n3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Periods) != 0 {
		t.Fatal("fully synced node must have nothing to do")
	}
}

func TestEBVNodeRejectsMismatchedSnapshot(t *testing.T) {
	_, _, ebvChain := buildChains(t, 60)
	dir := t.TempDir()
	n1, err := NewEBVNode(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunIBDEBV(ebvChain, n1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the pairing: delete the snapshot but keep the chain.
	if err := os.Remove(filepath.Join(dir, "status.snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEBVNode(Config{Dir: dir}); err == nil {
		t.Fatal("missing snapshot with non-empty chain must be rejected")
	}
}

func TestBitcoinNodeRestartResumes(t *testing.T) {
	_, classicChain, _ := buildChains(t, 120)
	dir := t.TempDir()
	n1, err := NewBitcoinNode(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(0); h < 70; h++ {
		raw, _ := classicChain.BlockBytes(h)
		blk, err := blockmodel.DecodeClassicBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n1.SubmitBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	count := n1.UTXO.Count()
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := NewBitcoinNode(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.UTXO.Count() != count {
		t.Fatalf("UTXO counters lost: %d vs %d", n2.UTXO.Count(), count)
	}
	if _, err := RunIBDBitcoin(classicChain, n2, 0, nil); err != nil {
		t.Fatal(err)
	}
	if n2.Chain.Count() != 120 {
		t.Fatalf("chain count %d", n2.Chain.Count())
	}
}

func TestParallelValidationNodeAgrees(t *testing.T) {
	g, _, ebvChain := buildChains(t, 120)
	seq, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	par, err := NewEBVNode(Config{Dir: t.TempDir(), ParallelValidation: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	resSeq, err := RunIBDEBV(ebvChain, seq, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := RunIBDEBV(ebvChain, par, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Status.UnspentCount() != par.Status.UnspentCount() {
		t.Fatal("pipeline node diverged")
	}
	if int(par.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatal("pipeline node vs ground truth")
	}
	if resSeq.Total.Inputs != resPar.Total.Inputs || resSeq.Total.Txs != resPar.Total.Txs {
		t.Fatalf("work accounting differs: %d/%d vs %d/%d",
			resSeq.Total.Inputs, resSeq.Total.Txs, resPar.Total.Inputs, resPar.Total.Txs)
	}
	if resPar.Total.SV == 0 || resPar.Total.EV == 0 {
		t.Fatal("pipeline must still attribute EV and SV time")
	}
}

// TestReorgRoundTrip disconnects the top K blocks of both node types
// and reconnects them: state must be identical at every step.
func TestReorgRoundTrip(t *testing.T) {
	g, classicChain, ebvChain := buildChains(t, 140)

	btc, err := NewBitcoinNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	evn, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer evn.Close()
	if _, err := RunIBDBitcoin(classicChain, btc, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunIBDEBV(ebvChain, evn, 0, nil); err != nil {
		t.Fatal(err)
	}
	fullCount := btc.UTXO.Count()
	fullUnspent := evn.Status.UnspentCount()
	if int(fullCount) != g.UTXOCount() || fullUnspent != fullCount {
		t.Fatalf("pre-reorg state: %d / %d / %d", fullCount, fullUnspent, g.UTXOCount())
	}

	// Disconnect 5 blocks from each.
	const k = 5
	for i := 0; i < k; i++ {
		if err := btc.DisconnectTip(); err != nil {
			t.Fatalf("baseline disconnect %d: %v", i, err)
		}
		if err := evn.DisconnectTip(); err != nil {
			t.Fatalf("EBV disconnect %d: %v", i, err)
		}
		if btc.UTXO.Count() != evn.Status.UnspentCount() {
			t.Fatalf("divergence after disconnect %d: %d vs %d", i, btc.UTXO.Count(), evn.Status.UnspentCount())
		}
	}
	if btc.Chain.Count() != 135 || evn.Chain.Count() != 135 {
		t.Fatalf("chains after disconnect: %d / %d", btc.Chain.Count(), evn.Chain.Count())
	}

	// Reconnect via IBD resume: the same blocks connect again.
	if _, err := RunIBDBitcoin(classicChain, btc, 0, nil); err != nil {
		t.Fatalf("baseline reconnect: %v", err)
	}
	if _, err := RunIBDEBV(ebvChain, evn, 0, nil); err != nil {
		t.Fatalf("EBV reconnect: %v", err)
	}
	if btc.UTXO.Count() != fullCount {
		t.Fatalf("baseline count after reconnect: %d vs %d", btc.UTXO.Count(), fullCount)
	}
	if evn.Status.UnspentCount() != fullUnspent {
		t.Fatalf("EBV unspent after reconnect: %d vs %d", evn.Status.UnspentCount(), fullUnspent)
	}
}

func TestDisconnectEmptyChainFails(t *testing.T) {
	btc, err := NewBitcoinNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer btc.Close()
	if err := btc.DisconnectTip(); err == nil {
		t.Fatal("disconnect on empty chain must fail")
	}
	evn, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer evn.Close()
	if err := evn.DisconnectTip(); err == nil {
		t.Fatal("disconnect on empty chain must fail")
	}
}

// TestReorgRestoresProbes spot-checks that bits cleared by a
// disconnected block read as unspent again.
func TestReorgRestoresProbes(t *testing.T) {
	_, _, ebvChain := buildChains(t, 120)
	evn, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer evn.Close()
	if _, err := RunIBDEBV(ebvChain, evn, 0, nil); err != nil {
		t.Fatal(err)
	}
	tip, _ := evn.Chain.TipHeight()
	raw, _ := evn.Chain.BlockBytes(tip)
	blk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	var spends []struct {
		h uint64
		p uint32
	}
	for _, tx := range blk.Txs {
		for i := range tx.Bodies {
			spends = append(spends, struct {
				h uint64
				p uint32
			}{tx.Bodies[i].Height, tx.Bodies[i].AbsPosition()})
		}
	}
	if len(spends) == 0 {
		t.Skip("tip block has no spends")
	}
	for _, sp := range spends {
		if ok, _ := evn.Status.IsUnspent(sp.h, sp.p); ok {
			t.Fatal("spent bit must read 0 before disconnect")
		}
	}
	if err := evn.DisconnectTip(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range spends {
		ok, err := evn.Status.IsUnspent(sp.h, sp.p)
		if err != nil || !ok {
			t.Fatalf("bit %d:%d must be restored: %v %v", sp.h, sp.p, ok, err)
		}
	}
}

func TestBitcoinDisconnectWithoutUndoFails(t *testing.T) {
	_, classicChain, _ := buildChains(t, 40)
	n, err := NewBitcoinNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := RunIBDBitcoin(classicChain, n, 0, nil); err != nil {
		t.Fatal(err)
	}
	tip, _ := n.Chain.TipHeight()
	// Destroy the undo record, then disconnect must fail cleanly.
	if err := n.db.Delete(undoKey(tip)); err != nil {
		t.Fatal(err)
	}
	if err := n.DisconnectTip(); err == nil {
		t.Fatal("missing undo must fail the disconnect")
	}
	// The chain is untouched.
	if got, _ := n.Chain.TipHeight(); got != tip {
		t.Fatal("failed disconnect must not truncate")
	}
}

// TestPipelinedIBDMatchesSequential runs the same EBV chain through a
// sequential node and a pipelined one (PipelineDepth > 0) and demands
// identical state, identical totals, and identical period structure.
func TestPipelinedIBDMatchesSequential(t *testing.T) {
	g, _, ebvChain := buildChains(t, 180)

	seq, err := NewEBVNode(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	pipe, err := NewEBVNode(Config{Dir: t.TempDir(), PipelineDepth: 4, ParallelValidation: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	resSeq, err := RunIBDEBV(ebvChain, seq, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	resPipe, err := RunIBDEBV(ebvChain, pipe, 50, func(PeriodStats) { calls++ })
	if err != nil {
		t.Fatal(err)
	}

	if int(pipe.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("pipelined unspent count %d != %d", pipe.Status.UnspentCount(), g.UTXOCount())
	}
	if seq.Status.UnspentCount() != pipe.Status.UnspentCount() {
		t.Fatalf("state divergence: %d vs %d unspent", seq.Status.UnspentCount(), pipe.Status.UnspentCount())
	}
	if seq.Chain.TipHash() != pipe.Chain.TipHash() || pipe.Chain.Count() != 180 {
		t.Fatalf("chain divergence: count %d", pipe.Chain.Count())
	}
	if resSeq.Total.Inputs != resPipe.Total.Inputs || resSeq.Total.Txs != resPipe.Total.Txs {
		t.Fatalf("totals differ: %d/%d inputs, %d/%d txs",
			resSeq.Total.Inputs, resPipe.Total.Inputs, resSeq.Total.Txs, resPipe.Total.Txs)
	}
	if len(resPipe.Periods) != 4 || calls != 4 {
		t.Fatalf("period structure: %d periods, %d progress calls", len(resPipe.Periods), calls)
	}
	for i, p := range resPipe.Periods {
		if p.StartHeight != resSeq.Periods[i].StartHeight || p.EndHeight != resSeq.Periods[i].EndHeight {
			t.Fatalf("period %d bounds: %+v vs %+v", i, p, resSeq.Periods[i])
		}
		if p.Breakdown.Inputs != resSeq.Periods[i].Breakdown.Inputs {
			t.Fatalf("period %d inputs: %d vs %d", i, p.Breakdown.Inputs, resSeq.Periods[i].Breakdown.Inputs)
		}
	}
	if resPipe.Wall <= 0 {
		t.Fatal("pipelined run must report wall time")
	}
}

// TestPipelinedIBDFailsLikeSequential corrupts one mid-chain block and
// checks the pipelined driver reports the identical wrapped error and
// stops at the identical tip.
func TestPipelinedIBDFailsLikeSequential(t *testing.T) {
	_, _, ebvChain := buildChains(t, 60)
	corrupt, err := chainstore.Open(filepath.Join(t.TempDir(), "bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	for h := uint64(0); h < 60; h++ {
		raw, _ := ebvChain.BlockBytes(h)
		hdr, _ := ebvChain.Header(h)
		if h == 40 {
			raw = raw[:len(raw)-3]
		}
		if err := corrupt.Append(hdr, raw); err != nil {
			t.Fatal(err)
		}
	}

	run := func(depth int) (string, uint64) {
		n, err := NewEBVNode(Config{Dir: t.TempDir(), PipelineDepth: depth, ParallelValidation: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		_, ibdErr := RunIBDEBV(corrupt, n, 0, nil)
		if ibdErr == nil {
			t.Fatal("corrupt chain must abort IBD")
		}
		tip, _ := n.Chain.TipHeight()
		return ibdErr.Error(), tip
	}
	seqMsg, seqTip := run(0)
	pipeMsg, pipeTip := run(4)
	if seqMsg != pipeMsg {
		t.Fatalf("error divergence:\n  sequential: %s\n  pipelined:  %s", seqMsg, pipeMsg)
	}
	if seqTip != 39 || pipeTip != 39 {
		t.Fatalf("tips after failure: %d / %d, want 39", seqTip, pipeTip)
	}
}

// TestPipelinedIBDEvictsPool pools a transaction that a later block of
// the replayed chain includes, then resumes IBD: the pipelined replay
// must evict it from the mempool exactly as block-by-block replay does.
func TestPipelinedIBDEvictsPool(t *testing.T) {
	const blocks, pooledAt = 140, 130
	_, _, ebvChain := buildChains(t, blocks)
	prefix, err := chainstore.Open(filepath.Join(t.TempDir(), "prefix"))
	if err != nil {
		t.Fatal(err)
	}
	defer prefix.Close()
	for h := uint64(0); h < pooledAt; h++ {
		raw, _ := ebvChain.BlockBytes(h)
		hdr, _ := ebvChain.Header(h)
		if err := prefix.Append(hdr, raw); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := ebvChain.BlockBytes(pooledAt)
	if err != nil {
		t.Fatal(err)
	}
	included, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}

	for _, depth := range []int{0, 2} {
		n, err := NewEBVNode(Config{Dir: t.TempDir(), PipelineDepth: depth, Admission: &AdmissionConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunIBDEBV(prefix, n, 0, nil); err != nil {
			t.Fatal(err)
		}
		pooled := 0
		for _, tx := range included.Txs[1:] {
			if _, err := n.Pool.Add(tx); err == nil {
				pooled++
			}
		}
		if pooled == 0 {
			t.Fatalf("depth %d: no transaction of block %d admitted at tip %d", depth, pooledAt, pooledAt-1)
		}
		if _, err := RunIBDEBV(ebvChain, n, 0, nil); err != nil {
			t.Fatal(err)
		}
		if got := n.Pool.Len(); got != 0 {
			t.Errorf("depth %d: %d of %d pooled transactions left after their block connected", depth, got, pooled)
		}
		n.Close()
	}
}

// TestAdmissionOwnsTheTransactionTier pins where the transaction tier
// lives: the baseline has none and rejects an admission config, and
// an EBV node gets a verified-proof cache only when it admits, since
// admission is the cache's only writer.
func TestAdmissionOwnsTheTransactionTier(t *testing.T) {
	if n, err := NewBitcoinNode(Config{Dir: t.TempDir(), Admission: &AdmissionConfig{}}); err == nil {
		n.Close()
		t.Fatal("baseline node accepted an admission config")
	}
	for _, admits := range []bool{false, true} {
		cfg := Config{Dir: t.TempDir(), VerifyCacheSize: 1 << 10}
		if admits {
			cfg.Admission = &AdmissionConfig{}
		}
		n, err := NewEBVNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Validator.Cache() != nil; got != admits {
			t.Errorf("admission %v: cache installed %v", admits, got)
		}
		n.Close()
	}
}
