package p2p

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/node"
	"ebv/internal/p2p/wire"
	"ebv/internal/proof"
	"ebv/internal/workload"
)

// buildEBVChain renders a small chain for gossip tests.
func buildEBVChain(t testing.TB, blocks int) (*workload.Generator, *chainstore.Store) {
	t.Helper()
	g := workload.NewGenerator(workload.TestParams(blocks))
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
		if _, err := im.ProcessBlock(cb); err != nil {
			t.Fatal(err)
		}
	}
	return g, im.Chain()
}

// newEBVGossipNode creates a fresh EBV node wrapped for gossip.
func newEBVGossipNode(t testing.TB, cfg Config) (*Node, *node.EBVNode) {
	t.Helper()
	en, err := node.NewEBVNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	gn := NewNode(EBVChain{Node: en}, cfg)
	if _, err := gn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gn.Close() })
	return gn, en
}

// preload fills a node with the chain's blocks directly.
func preload(t testing.TB, en *node.EBVNode, src *chainstore.Store, upto uint64) {
	t.Helper()
	for h := uint64(0); h < upto; h++ {
		raw, err := src.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := en.SubmitBlock(blk); err != nil {
			t.Fatalf("preload %d: %v", h, err)
		}
	}
}

// waitFor polls cond up to 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestInitialSyncOverTCP(t *testing.T) {
	g, src := buildEBVChain(t, 80)
	tip, _ := src.TipHeight()

	seedGossip, seedNode := newEBVGossipNode(t, Config{})
	preload(t, seedNode, src, tip+1)

	freshGossip, freshNode := newEBVGossipNode(t, Config{})
	if err := freshGossip.Connect(seedGossip.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial sync", func() bool {
		got, ok := freshNode.Chain.TipHeight()
		return ok && got == tip
	})
	if int(freshNode.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("synced state %d != ground truth %d", freshNode.Status.UnspentCount(), g.UTXOCount())
	}
}

func TestGossipPropagatesThroughLine(t *testing.T) {
	_, src := buildEBVChain(t, 60)
	tip, _ := src.TipHeight()

	// A line topology A-B-C: all preloaded to tip-1; A receives the
	// last block locally and it must reach C through B, each hop
	// validating first.
	var arrivals sync.Map
	mk := func(name string) (*Node, *node.EBVNode) {
		gn, en := newEBVGossipNode(t, Config{OnBlock: func(h uint64, from string) {
			arrivals.Store(name, h)
		}})
		preload(t, en, src, tip)
		return gn, en
	}
	a, _ := mk("a")
	b, _ := mk("b")
	c, cNode := mk("c")
	if err := b.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peers", func() bool { return a.PeerCount() == 1 && b.PeerCount() == 2 && c.PeerCount() == 1 })

	raw, err := src.BlockBytes(tip)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "propagation to C", func() bool {
		got, ok := cNode.Chain.TipHeight()
		return ok && got == tip
	})
	if v, ok := arrivals.Load("c"); !ok || v.(uint64) != tip {
		t.Fatal("OnBlock must fire at C")
	}
}

func TestInvalidBlockNotForwarded(t *testing.T) {
	_, src := buildEBVChain(t, 50)
	tip, _ := src.TipHeight()

	a, aNode := newEBVGossipNode(t, Config{})
	b, bNode := newEBVGossipNode(t, Config{})
	// Preload both to tip-1.
	preload(t, aNode, src, tip)
	preload(t, bNode, src, tip)
	if err := b.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peers", func() bool { return a.PeerCount() == 1 && b.PeerCount() == 1 })

	// Corrupt the last block and submit it locally at A: A's own
	// validator must reject it, so nothing propagates.
	raw, _ := src.BlockBytes(tip)
	bad := append([]byte{}, raw...)
	bad[len(bad)-1] ^= 1
	if err := a.SubmitLocal(bad); err == nil {
		t.Fatal("corrupt block must be rejected locally")
	}
	time.Sleep(50 * time.Millisecond)
	if got, _ := bNode.Chain.TipHeight(); got == tip {
		t.Fatal("corrupt block must not reach B")
	}
}

func TestMaliciousPeerDropped(t *testing.T) {
	_, src := buildEBVChain(t, 50)
	tip, _ := src.TipHeight()

	honest, honestNode := newEBVGossipNode(t, Config{})
	preload(t, honestNode, src, tip)

	// A raw TCP client that completes the handshake and then sends a
	// garbage block at the next height.
	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip + 5}); err != nil {
		t.Fatal(err)
	}
	// The node believes we are ahead and asks for blocks; feed it junk.
	if _, err := conn.read(); err != nil { // its hello
		t.Fatal(err)
	}
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: tip, Payload: []byte("junk")}); err != nil {
		t.Fatal(err)
	}
	// The node must drop us: the next read fails once it closes.
	waitFor(t, "disconnect", func() bool {
		conn.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_, err := conn.read()
		return err != nil && honest.PeerCount() == 0
	})
	if got, _ := honestNode.Chain.TipHeight(); got != tip-1 {
		t.Fatalf("junk must not advance the chain: tip %d", got)
	}
}

func TestSilentPeerDropped(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()

	honest, honestNode := newEBVGossipNode(t, Config{ReadTimeout: 150 * time.Millisecond})
	preload(t, honestNode, src, tip+1)

	// Complete the handshake, then go silent: the per-message read
	// deadline must drop us instead of pinning the handler goroutine
	// (and a peer slot) forever.
	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil { // its hello
		t.Fatal(err)
	}
	waitFor(t, "peer registered", func() bool { return honest.PeerCount() == 1 })

	waitFor(t, "silent peer dropped", func() bool { return honest.PeerCount() == 0 })
	// The node closed the connection, not just forgot about it.
	conn.conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.read(); err == nil {
		t.Fatal("node must close a silent peer's connection")
	}
}

func TestActivePeerNotDropped(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()

	honest, honestNode := newEBVGossipNode(t, Config{ReadTimeout: 200 * time.Millisecond})
	preload(t, honestNode, src, tip+1)

	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer registered", func() bool { return honest.PeerCount() == 1 })

	// Keep talking at a cadence well inside the deadline: each message
	// must re-arm the timer and keep the connection alive.
	for i := 0; i < 6; i++ {
		time.Sleep(80 * time.Millisecond)
		if err := conn.send(&wire.Message{Kind: wire.Inv, Height: tip}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if honest.PeerCount() != 1 {
			t.Fatalf("active peer dropped after %d messages", i)
		}
	}
}

func TestBitcoinChainAdapter(t *testing.T) {
	g := workload.NewGenerator(workload.TestParams(40))
	classicDir := t.TempDir()
	classic, err := chainstore.Open(classicDir)
	if err != nil {
		t.Fatal(err)
	}
	defer classic.Close()
	for !g.Done() {
		cb, err := g.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := classic.Append(cb.Header, cb.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	tip, _ := classic.TipHeight()

	seedBtc, err := node.NewBitcoinNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer seedBtc.Close()
	if _, err := node.RunIBDBitcoin(classic, seedBtc, 0, nil); err != nil {
		t.Fatal(err)
	}
	seed := NewNode(BitcoinChain{Node: seedBtc}, Config{})
	if _, err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	freshBtc, err := node.NewBitcoinNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer freshBtc.Close()
	fresh := NewNode(BitcoinChain{Node: freshBtc}, Config{})
	if _, err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Connect(seed.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "baseline sync", func() bool {
		got, ok := freshBtc.Chain.TipHeight()
		return ok && got == tip
	})
	if freshBtc.UTXO.Count() != seedBtc.UTXO.Count() {
		t.Fatal("UTXO sets must agree after sync")
	}
}

// rawConn is a minimal protocol client for adversarial tests.
type rawConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

func (c *rawConn) send(m *wire.Message) error { return wire.Write(c.w, m) }
func (c *rawConn) read() (*wire.Message, error) {
	return wire.Read(c.r)
}
func (c *rawConn) close() { c.conn.Close() }

// sendRaw writes pre-framed bytes, bypassing the codec's send-side
// checks — for frames a correct implementation could never produce.
func (c *rawConn) sendRaw(b []byte) error {
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

func BenchmarkSyncThroughput(b *testing.B) {
	_, src := buildEBVChain(b, 100)
	tip, _ := src.TipHeight()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seedNodeDir := b.TempDir()
		seedEN, err := node.NewEBVNode(node.Config{Dir: seedNodeDir})
		if err != nil {
			b.Fatal(err)
		}
		for h := uint64(0); h <= tip; h++ {
			raw, _ := src.BlockBytes(h)
			blk, _ := blockmodel.DecodeEBVBlock(raw)
			if _, err := seedEN.SubmitBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
		seed := NewNode(EBVChain{Node: seedEN}, Config{})
		if _, err := seed.Start(); err != nil {
			b.Fatal(err)
		}
		freshEN, err := node.NewEBVNode(node.Config{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		fresh := NewNode(EBVChain{Node: freshEN}, Config{})
		if _, err := fresh.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := fresh.Connect(seed.Addr()); err != nil {
			b.Fatal(err)
		}
		for {
			got, ok := freshEN.Chain.TipHeight()
			if ok && got == tip {
				break
			}
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()
		fresh.Close()
		seed.Close()
		freshEN.Close()
		seedEN.Close()
	}
}

func TestStaticChainServesButRejects(t *testing.T) {
	_, src := buildEBVChain(t, 40)
	tip, _ := src.TipHeight()
	seed := NewNode(StaticChain{Store: src}, Config{})
	if _, err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	fresh, freshNode := newEBVGossipNode(t, Config{})
	if err := fresh.Connect(seed.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sync from static chain", func() bool {
		got, ok := freshNode.Chain.TipHeight()
		return ok && got == tip
	})
	if err := (StaticChain{Store: src}).SubmitRaw([]byte("x")); err == nil {
		t.Fatal("static chain must reject submissions")
	}
}

func TestOutOfOrderBlockTriggersGapRequest(t *testing.T) {
	_, src := buildEBVChain(t, 40)
	tip, _ := src.TipHeight()
	honest, honestNode := newEBVGossipNode(t, Config{})
	preload(t, honestNode, src, tip-2) // node is 3 blocks behind

	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	// Handshake claiming the same height so no initial sync fires.
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip - 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	// Send the TIP block (two ahead of what the node needs): the node
	// must not apply it, and must ask for the gap instead.
	raw, _ := src.BlockBytes(tip)
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: tip, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	got, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != wire.GetBlocks || got.Height != tip-2 {
		t.Fatalf("want gap request from %d, got kind %d height %d", tip-2, got.Kind, got.Height)
	}
	// Serve the gap; the node catches up and keeps pulling.
	for h := tip - 2; h <= tip; h++ {
		raw, _ := src.BlockBytes(h)
		if err := conn.send(&wire.Message{Kind: wire.Block, Height: h, Payload: raw}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch up", func() bool {
		got, ok := honestNode.Chain.TipHeight()
		return ok && got == tip
	})
}

func TestDuplicateBlockIgnored(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()
	honest, honestNode := newEBVGossipNode(t, Config{})
	preload(t, honestNode, src, tip+1) // fully synced

	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	raw, _ := src.BlockBytes(tip)
	if err := conn.send(&wire.Message{Kind: wire.Block, Height: tip, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	// The node must stay connected and unchanged.
	time.Sleep(30 * time.Millisecond)
	if honest.PeerCount() != 1 {
		t.Fatal("duplicate block must not drop the peer")
	}
	if got, _ := honestNode.Chain.TipHeight(); got != tip {
		t.Fatal("duplicate block must not change the chain")
	}
}

// fakeSnapshots is a canned SnapshotProvider for protocol-level tests.
type fakeSnapshots struct {
	manifest []byte
	chunks   map[uint64][]byte
}

func (f fakeSnapshots) ManifestBytes() ([]byte, bool) { return f.manifest, f.manifest != nil }
func (f fakeSnapshots) ChunkBytes(index uint64) ([]byte, error) {
	c, ok := f.chunks[index]
	if !ok {
		return nil, fmt.Errorf("no chunk %d", index)
	}
	return c, nil
}

// A message kind from a future protocol version must be skipped, not
// treated as an offence: the connection stays up and later messages
// are still served.
func TestUnknownMessageKindTolerated(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()
	honest, honestNode := newEBVGossipNode(t, Config{})
	preload(t, honestNode, src, tip+1)

	conn, err := dialRaw(honest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer registered", func() bool { return honest.PeerCount() == 1 })

	// A frame with an unassigned kind byte and a body.
	if err := conn.sendRaw([]byte{0x63, 4, 'f', 'u', 't', 'r'}); err != nil {
		t.Fatal(err)
	}
	// The node must still answer a real request on the same connection.
	if err := conn.send(&wire.Message{Kind: wire.GetBlocks, Height: tip, Count: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := conn.read()
	if err != nil {
		t.Fatalf("connection dead after unknown kind: %v", err)
	}
	if got.Kind != wire.Block || got.Height != tip {
		t.Fatalf("want block %d after unknown kind, got kind %d height %d", tip, got.Kind, got.Height)
	}
	if honest.PeerCount() != 1 {
		t.Fatal("unknown message kind must not drop the peer")
	}
}

// A node with a SnapshotProvider advertises FeatureStateSync and
// serves manifest/chunk requests; one without answers with empty
// payloads instead of dropping the connection.
func TestSnapshotServingAndFeatureBit(t *testing.T) {
	_, src := buildEBVChain(t, 20)
	tip, _ := src.TipHeight()

	snaps := fakeSnapshots{
		manifest: []byte("the manifest"),
		chunks:   map[uint64][]byte{0: []byte("chunk zero")},
	}
	serving, servingNode := newEBVGossipNode(t, Config{Snapshots: snaps})
	preload(t, servingNode, src, tip+1)

	conn, err := dialRaw(serving.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: tip + 1, Features: wire.FeatureStateSync}); err != nil {
		t.Fatal(err)
	}
	hello, err := conn.read()
	if err != nil || hello.Kind != wire.Hello {
		t.Fatalf("handshake: %+v, %v", hello, err)
	}
	if hello.Features&wire.FeatureStateSync == 0 {
		t.Fatal("serving node must advertise FeatureStateSync")
	}
	if err := conn.send(&wire.Message{Kind: wire.GetManifest}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.read()
	if err != nil || m.Kind != wire.Manifest || string(m.Payload) != "the manifest" {
		t.Fatalf("manifest: %+v, %v", m, err)
	}
	if err := conn.send(&wire.Message{Kind: wire.GetChunk, Height: 0}); err != nil {
		t.Fatal(err)
	}
	c, err := conn.read()
	if err != nil || c.Kind != wire.Chunk || c.Height != 0 || string(c.Payload) != "chunk zero" {
		t.Fatalf("chunk: %+v, %v", c, err)
	}
	// A chunk the provider errors on comes back empty (unavailable),
	// and the connection survives.
	if err := conn.send(&wire.Message{Kind: wire.GetChunk, Height: 99}); err != nil {
		t.Fatal(err)
	}
	c, err = conn.read()
	if err != nil || c.Kind != wire.Chunk || len(c.Payload) != 0 {
		t.Fatalf("missing chunk: %+v, %v", c, err)
	}

	// A node without a provider: no feature bit, empty manifest.
	plain, plainNode := newEBVGossipNode(t, Config{})
	preload(t, plainNode, src, tip+1)
	conn2, err := dialRaw(plain.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.close()
	if err := conn2.send(&wire.Message{Kind: wire.Hello, Height: tip + 1}); err != nil {
		t.Fatal(err)
	}
	hello2, err := conn2.read()
	if err != nil {
		t.Fatal(err)
	}
	if hello2.Features != 0 {
		t.Fatalf("plain node advertised features %08b", hello2.Features)
	}
	if err := conn2.send(&wire.Message{Kind: wire.GetManifest}); err != nil {
		t.Fatal(err)
	}
	m2, err := conn2.read()
	if err != nil || m2.Kind != wire.Manifest || len(m2.Payload) != 0 {
		t.Fatalf("no-provider manifest: %+v, %v", m2, err)
	}
	if plain.PeerCount() != 1 {
		t.Fatal("snapshot requests must not drop the peer")
	}
}

// A fast-synced node stores header-only history below its snapshot
// tip. A fresh peer's getblocks for those heights is a normal IBD
// request, not an offence: the batch must end gracefully and the
// connection survive, so the requester can fail over to peers with
// bodies while gossip of new blocks continues.
func TestGetBlocksOnHeaderOnlyHistoryKeepsPeer(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()

	// A store shaped like a fast-synced node: headers only below
	// tip-4, real bodies from there up.
	store, err := chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for h := uint64(0); h <= tip; h++ {
		hdr, _ := src.Header(h)
		if h < tip-4 {
			err = store.AppendHeader(hdr)
		} else {
			raw, _ := src.BlockBytes(h)
			err = store.Append(hdr, raw)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	serving := NewNode(StaticChain{Store: store}, Config{})
	if _, err := serving.Start(); err != nil {
		t.Fatal(err)
	}
	defer serving.Close()

	conn, err := dialRaw(serving.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	if err := conn.send(&wire.Message{Kind: wire.Hello, Height: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer registered", func() bool { return serving.PeerCount() == 1 })

	// Fresh IBD: ask from genesis. The node holds no body there — it
	// must answer nothing and keep the connection.
	if err := conn.send(&wire.Message{Kind: wire.GetBlocks, Height: 0, Count: 8}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if serving.PeerCount() != 1 {
		t.Fatal("getblocks on header-only history must not drop the peer")
	}

	// Heights with bodies are still served on the same connection.
	if err := conn.send(&wire.Message{Kind: wire.GetBlocks, Height: tip - 4, Count: 2}); err != nil {
		t.Fatal(err)
	}
	for h := tip - 4; h < tip-2; h++ {
		got, err := conn.read()
		if err != nil || got.Kind != wire.Block || got.Height != h {
			t.Fatalf("want block %d, got %+v, %v", h, got, err)
		}
	}
}

// Byte counters must see traffic in both directions.
func TestByteCounters(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()
	seed, seedNode := newEBVGossipNode(t, Config{})
	preload(t, seedNode, src, tip+1)

	fresh, freshNode := newEBVGossipNode(t, Config{})
	if err := fresh.Connect(seed.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sync", func() bool {
		got, ok := freshNode.Chain.TipHeight()
		return ok && got == tip
	})
	if fresh.BytesRead() == 0 || fresh.BytesWritten() == 0 {
		t.Fatalf("counters: read %d written %d", fresh.BytesRead(), fresh.BytesWritten())
	}
	// The writer records its bytes after Write returns, so the reader
	// can count them first; compare only once both counters have held
	// still for 50ms.
	lastW, lastR, moved := int64(-1), int64(-1), time.Now()
	waitFor(t, "byte counters to settle", func() bool {
		w, r := seed.BytesWritten(), fresh.BytesRead()
		if w != lastW || r != lastR {
			lastW, lastR, moved = w, r, time.Now()
		}
		return time.Since(moved) >= 50*time.Millisecond
	})
	if seed.BytesWritten() < fresh.BytesRead() {
		t.Fatalf("seed wrote %d < fresh read %d", seed.BytesWritten(), fresh.BytesRead())
	}
}
