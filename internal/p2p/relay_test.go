package p2p

import (
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/loadgen"
	"ebv/internal/p2p/wire"
	"ebv/internal/relay"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/txmodel"
)

// testSource is a canned relay.TxSource standing in for a mempool:
// pool-form encodings by leaf.
type testSource struct {
	m      map[hashx.Hash][]byte
	leaves []hashx.Hash
}

func (s *testSource) LookupByLeaf(leaf hashx.Hash) ([]byte, bool) {
	raw, ok := s.m[leaf]
	return raw, ok
}

func (s *testSource) LeafHashes() []hashx.Hash { return s.leaves }

// sourceFromBlock pools the block's non-coinbase transactions at
// indexes where keep returns true, in the zero-StakePos form a mempool
// holds.
func sourceFromBlock(t testing.TB, raw []byte, keep func(i int) bool) *testSource {
	t.Helper()
	blk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	src := &testSource{m: map[hashx.Hash][]byte{}}
	for i := 1; i < len(blk.Txs); i++ {
		if !keep(i) {
			continue
		}
		cp := *blk.Txs[i]
		cp.Tidy.StakePos = 0
		cp.Tidy.Invalidate()
		leaf := cp.Tidy.LeafHash()
		src.m[leaf] = cp.Encode(nil)
		src.leaves = append(src.leaves, leaf)
	}
	return src
}

// richBlock scans down from below the tip for a block with at least
// minTxs transactions and returns its height and bytes. It starts at
// tip-1 so a successor block always exists for tests that need one,
// and a 250-block workload chain always satisfies the scan — a miss is
// a harness regression, not a skip.
func richBlock(t testing.TB, src *chainstore.Store, minTxs int) (uint64, []byte) {
	t.Helper()
	tip, _ := src.TipHeight()
	for h := tip - 1; ; h-- {
		raw, err := src.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk.Txs) >= minTxs {
			return h, raw
		}
		if h == 0 {
			t.Fatalf("no block with >= %d txs in the test chain", minTxs)
		}
	}
}

// blockInfo decodes raw and indexes it for compact announcement, as
// an announcing node does.
func blockInfo(t testing.TB, raw []byte) *relay.BlockInfo {
	t.Helper()
	blk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	return relay.NewBlockInfo(raw, blk)
}

// A compact announcement to a receiver whose mempool holds every
// transaction must deliver the block with zero transactions fetched
// and no full block on the wire.
func TestCompactRelayWarmMempool(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 2)

	announcer, announcerNode := newEBVGossipNode(t, Config{Relay: &testSource{}})
	preload(t, announcerNode, src, h)
	receiver, receiverNode := newEBVGossipNode(t, Config{
		Relay: sourceFromBlock(t, raw, func(int) bool { return true }),
	})
	preload(t, receiverNode, src, h)

	if err := receiver.Connect(announcer.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return announcer.PeerCount() == 1 && receiver.PeerCount() == 1
	})

	if err := announcer.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "compact delivery", func() bool {
		got, ok := receiverNode.Chain.TipHeight()
		return ok && got == h
	})

	rs := receiver.RelayStats()
	if rs.CompactReceived != 1 || rs.Reconstructed != 1 || rs.TxnsRequested != 0 || rs.Fallbacks != 0 {
		t.Fatalf("receiver relay stats %+v", rs)
	}
	if sent := announcer.RelayStats().CompactSent; sent != 1 {
		t.Fatalf("announcer sent %d compact announcements, want 1", sent)
	}
	ks := receiver.KindStats()
	if ks[wire.Block].BytesIn != 0 {
		t.Fatalf("full block crossed the wire: %d bytes", ks[wire.Block].BytesIn)
	}
	if ks[wire.CmpctBlock].MsgsIn != 1 {
		t.Fatalf("kind counters missed the announcement: %+v", ks[wire.CmpctBlock])
	}
}

// spendBlock builds the block after src's tip from n independent
// single-input spends of the chain's unspent outputs — a block larger
// than the workload chain's own, the size a synced mempool mines.
func spendBlock(t testing.TB, src *chainstore.Store, n int) (uint64, []byte) {
	t.Helper()
	const fee = 1_000
	corpus, err := loadgen.Prepare(src, sig.SimSig{}, n, fee)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < n {
		t.Fatalf("only %d spendable outputs, want %d", len(corpus), n)
	}
	tip, _ := src.TipHeight()
	height := tip + 1
	txs := []*txmodel.EBVTx{{Tidy: txmodel.TidyTx{
		Outputs: []txmodel.TxOut{{
			Value:      blockmodel.Subsidy(height) + fee*uint64(n),
			LockScript: script.StandardLock(sig.SimSig{}.KeyFromSeed([]byte("relay-miner"))),
		}},
		LockTime: uint32(height),
	}}}
	for _, raw := range corpus {
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	blk, err := blockmodel.AssembleEBV(src.TipHash(), height, 0, txs)
	if err != nil {
		t.Fatal(err)
	}
	return height, blk.Encode(nil)
}

// At 95% mempool overlap compact delivery — the announcement, the one
// getblocktxn round trip and the missing transactions — must cost
// under a tenth of the full block's bytes, with no fallback.
func TestCompactRelayByteGate(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := spendBlock(t, src, 100)

	announcer, announcerNode := newEBVGossipNode(t, Config{Relay: &testSource{}})
	preload(t, announcerNode, src, h)
	receiver, receiverNode := newEBVGossipNode(t, Config{
		// Transactions 20, 40, ..., 100 are missing: 95 of 100 held.
		Relay: sourceFromBlock(t, raw, func(i int) bool { return i%20 != 0 }),
	})
	preload(t, receiverNode, src, h)

	if err := receiver.Connect(announcer.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return announcer.PeerCount() == 1 && receiver.PeerCount() == 1
	})
	if err := announcer.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "95%-overlap delivery", func() bool {
		got, ok := receiverNode.Chain.TipHeight()
		return ok && got == h
	})
	rs := receiver.RelayStats()
	if rs.Reconstructed != 1 || rs.Fallbacks != 0 {
		t.Fatalf("receiver relay stats %+v", rs)
	}
	ks := receiver.KindStats()
	compact := ks[wire.CmpctBlock].BytesIn + ks[wire.GetBlockTxn].BytesOut + ks[wire.BlockTxn].BytesIn
	if compact*10 >= int64(len(raw)) {
		t.Fatalf("compact delivery cost %d B against a %d B block (>= 10%%)", compact, len(raw))
	}
	t.Logf("compact delivery: %d B for a %d B block (%d txns fetched)", compact, len(raw), rs.TxnsRequested)
}

// A half-warm receiver fetches exactly the missing transactions over
// getblocktxn and still reconstructs without falling back.
func TestCompactRelayFetchesMissing(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 3)

	announcer, announcerNode := newEBVGossipNode(t, Config{Relay: &testSource{}})
	preload(t, announcerNode, src, h)
	receiver, receiverNode := newEBVGossipNode(t, Config{
		Relay: sourceFromBlock(t, raw, func(i int) bool { return i%2 == 0 }),
	})
	preload(t, receiverNode, src, h)

	if err := receiver.Connect(announcer.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return announcer.PeerCount() == 1 && receiver.PeerCount() == 1
	})
	if err := announcer.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partial-overlap delivery", func() bool {
		got, ok := receiverNode.Chain.TipHeight()
		return ok && got == h
	})
	rs := receiver.RelayStats()
	if rs.Reconstructed != 1 || rs.TxnsRequested == 0 || rs.Fallbacks != 0 {
		t.Fatalf("receiver relay stats %+v", rs)
	}
}

// A peer that never advertised FeatureCompactRelay must see the legacy
// protocol verbatim: announcements arrive as inv, never as kinds 14-16.
func TestFeaturelessPeerNeverSeesCompactKinds(t *testing.T) {
	_, src := buildEBVChain(t, 40)
	tip, _ := src.TipHeight()
	gn, en := newEBVGossipNode(t, Config{Relay: &testSource{}})
	preload(t, en, src, tip)

	conn, err := dialRaw(gn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	// Hello without the compact bit, claiming the post-announce height
	// so no initial sync interleaves with the announcement.
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer registered", func() bool { return gn.PeerCount() == 1 })

	raw, _ := src.BlockBytes(tip)
	if err := gn.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	got, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != wire.Inv || got.Height != tip {
		t.Fatalf("featureless peer got kind %d height %d, want inv %d", got.Kind, got.Height, tip)
	}
}

// compactHandshake dials the node as a compact-capable raw peer
// claiming height h, returning the connection and the salt it
// registered.
func compactHandshake(t *testing.T, addr string, h uint64) (*rawConn, uint64) {
	t.Helper()
	const nonce = 0xFEEDFACE
	conn, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(conn.close)
	if err := conn.send(&wire.Message{
		Kind: wire.Hello, Height: h, Features: wire.FeatureCompactRelay, Nonce: nonce,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	return conn, nonce
}

// A peer that announces compact but never answers getblocktxn must
// cost only the relay timeout: the node falls back to a full fetch on
// the same connection, without a strike and without dropping the peer.
func TestSilentGetBlockTxnPeerTimesOutToFallback(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 2)

	gn, en := newEBVGossipNode(t, Config{Relay: &testSource{}, RelayTimeout: 100 * time.Millisecond})
	preload(t, en, src, h)

	conn, nonce := compactHandshake(t, gn.Addr(), h-1)
	waitFor(t, "peer registered", func() bool { return gn.PeerCount() == 1 })

	info := blockInfo(t, raw)
	if err := conn.send(&wire.Message{Kind: wire.CmpctBlock, Height: h,
		Payload: info.Compact(nonce).Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	req, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != wire.GetBlockTxn {
		t.Fatalf("want getblocktxn, got kind %d", req.Kind)
	}
	// Stay silent. The node must time out and pull the block whole.
	fb, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if fb.Kind != wire.GetBlocks || fb.Height != h {
		t.Fatalf("want fallback getblocks from %d, got kind %d height %d", h, fb.Kind, fb.Height)
	}
	if got := gn.RelayStats().Fallbacks; got != 1 {
		t.Fatalf("fallbacks %d, want 1", got)
	}
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: h, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full-block recovery", func() bool {
		got, ok := en.Chain.TipHeight()
		return ok && got == h
	})
	if gn.PeerCount() != 1 {
		t.Fatal("silent relay peer must keep its connection")
	}
}

// A wrong blocktxn answer dies in the digest check: the node scores
// the peer, falls back to the full block on the same connection, and —
// once the peer is out of strikes — stops requesting transactions from
// it at all.
func TestWrongBlockTxnStrikesAndFallsBack(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 2)

	gn, en := newEBVGossipNode(t, Config{Relay: &testSource{}, RelayTimeout: 5 * time.Second})
	preload(t, en, src, h)
	conn, nonce := compactHandshake(t, gn.Addr(), h-1)
	waitFor(t, "peer registered", func() bool { return gn.PeerCount() == 1 })

	info := blockInfo(t, raw)
	if err := conn.send(&wire.Message{Kind: wire.CmpctBlock, Height: h,
		Payload: info.Compact(nonce).Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	req, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != wire.GetBlockTxn {
		t.Fatalf("want getblocktxn, got kind %d", req.Kind)
	}
	idx, err := relay.DecodeIndexes(req.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Answer every slot with the coinbase bytes — well-formed, wrong.
	wrong, err := info.TxBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([][]byte, len(idx))
	for i := range bad {
		bad[i] = wrong
	}
	if err := conn.send(&wire.Message{Kind: wire.BlockTxn, Hash: req.Hash,
		Payload: relay.EncodeTxns(nil, bad)}); err != nil {
		t.Fatal(err)
	}
	fb, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if fb.Kind != wire.GetBlocks || fb.Height != h {
		t.Fatalf("want fallback getblocks from %d, got kind %d height %d", h, fb.Kind, fb.Height)
	}
	rs := gn.RelayStats()
	if rs.Fallbacks != 1 || rs.Reconstructed != 0 {
		t.Fatalf("relay stats %+v", rs)
	}
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: h, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full-block recovery", func() bool {
		got, ok := en.Chain.TipHeight()
		return ok && got == h
	})
	if gn.PeerCount() != 1 {
		t.Fatal("lying relay peer keeps its connection (scored, not dropped)")
	}

	// Out of strikes: further compact announcements from this peer must
	// short-circuit straight to the full-block path, no getblocktxn.
	gn.mu.Lock()
	for _, p := range gn.peers {
		p.strikes.Store(maxRelayStrikes)
	}
	gn.mu.Unlock()
	next := h + 1
	nextRaw, err := src.BlockBytes(next)
	if err != nil {
		t.Fatal(err)
	}
	nextInfo := blockInfo(t, nextRaw)
	if err := conn.send(&wire.Message{Kind: wire.CmpctBlock, Height: next,
		Payload: nextInfo.Compact(nonce).Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	direct, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if direct.Kind != wire.GetBlocks || direct.Height != next {
		t.Fatalf("struck-out peer: want direct getblocks from %d, got kind %d height %d",
			next, direct.Kind, direct.Height)
	}
}

// A crafted short-id collision resolves to the wrong transaction in
// the receiver's pool; the digest check catches it, the announcer is
// not blamed with a drop, and the block arrives via the full path.
func TestCollisionPoisonedPoolFallsBack(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 3)

	announcer, announcerNode := newEBVGossipNode(t, Config{Relay: &testSource{}})
	preload(t, announcerNode, src, h)
	poisoned := sourceFromBlock(t, raw, func(int) bool { return true })
	// Swap the transactions behind two leaves: short-id resolution now
	// rebuilds wrong bytes, exactly what a collision produces.
	a, b := poisoned.leaves[0], poisoned.leaves[1]
	poisoned.m[a], poisoned.m[b] = poisoned.m[b], poisoned.m[a]
	receiver, receiverNode := newEBVGossipNode(t, Config{Relay: poisoned})
	preload(t, receiverNode, src, h)

	if err := receiver.Connect(announcer.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return announcer.PeerCount() == 1 && receiver.PeerCount() == 1
	})
	if err := announcer.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery despite collision", func() bool {
		got, ok := receiverNode.Chain.TipHeight()
		return ok && got == h
	})
	rs := receiver.RelayStats()
	if rs.Fallbacks != 1 || rs.Reconstructed != 0 {
		t.Fatalf("receiver relay stats %+v", rs)
	}
	if announcer.PeerCount() != 1 || receiver.PeerCount() != 1 {
		t.Fatal("collision fallback must not cost the connection")
	}
}
