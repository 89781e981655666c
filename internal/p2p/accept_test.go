package p2p

import (
	"bufio"
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/forkchoice"
	"ebv/internal/ingest"
	"ebv/internal/light"
	"ebv/internal/node"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
)

// countingChain counts the block reads made through the gossip Chain.
type countingChain struct {
	Chain
	reads atomic.Int64
}

func (c *countingChain) BlockBytes(h uint64) ([]byte, error) {
	c.reads.Add(1)
	return c.Chain.BlockBytes(h)
}

// newServingNode builds an EBV node with a fork-choice engine, feeds it
// blocks, and wraps it for gossip — with cfg plus the engine — over a
// read-counting chain. It is not started: peers attach through pipes.
func newServingNode(t *testing.T, cfg Config, raws ...[][]byte) (*Node, *countingChain, *forkchoice.Engine) {
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
	cfg.Forks = eng
	chain := &countingChain{Chain: EBVChain{Node: en}}
	gn := NewNode(chain, cfg)
	t.Cleanup(func() { gn.Close() })
	return gn, chain, eng
}

// storedRaws returns src's blocks below height upto.
func storedRaws(t *testing.T, src *chainstore.Store, upto uint64) [][]byte {
	t.Helper()
	var raws [][]byte
	for h := uint64(0); h < upto; h++ {
		raw, err := src.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	return raws
}

// subscribePipe attaches a pipe peer to gn that subscribes to the
// payee of raw's coinbase.
func subscribePipe(t *testing.T, gn *Node, raw []byte) *pipeClient {
	t.Helper()
	c := attachPipe(t, gn)
	f := &light.Filter{Patterns: [][]byte{watchPatternOf(t, raw)}}
	if err := wire.Write(c.w, &wire.Message{Kind: wire.Subscribe, Payload: f.Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return gn.LightStats().Subscribers == 1 })
	return c
}

// attachCompactPipe attaches a compact-relay-capable pipe peer to gn
// and returns it with the salt gn announces to it under.
func attachCompactPipe(t *testing.T, gn *Node) (*pipeClient, uint64) {
	t.Helper()
	server, client := net.Pipe()
	gn.ServeConn(server)
	t.Cleanup(func() { client.Close() })
	c := &pipeClient{conn: client, r: bufio.NewReader(client), w: bufio.NewWriter(client)}
	client.SetDeadline(time.Now().Add(10 * time.Second))
	hello, err := wire.Read(c.r)
	if err != nil || hello.Kind != wire.Hello {
		t.Fatalf("server hello: %+v, %v", hello, err)
	}
	if err := wire.Write(c.w, &wire.Message{Kind: wire.Hello, Height: hello.Height,
		Features: wire.FeatureCompactRelay, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	client.SetDeadline(time.Time{})
	waitCompactPeer(t, gn)
	return c, hello.Nonce
}

// attachPeer attaches a pipe peer whose frames are read and dropped,
// and returns gn's side of it.
func attachPeer(t *testing.T, gn *Node) *peer {
	t.Helper()
	known := make(map[*peer]bool)
	gn.mu.Lock()
	for _, p := range gn.peers {
		known[p] = true
	}
	gn.mu.Unlock()
	collect(attachPipe(t, gn))
	var fresh *peer
	waitFor(t, "new peer", func() bool {
		gn.mu.Lock()
		defer gn.mu.Unlock()
		for _, p := range gn.peers {
			if !known[p] {
				fresh = p
				return true
			}
		}
		return false
	})
	return fresh
}

// waitCompactPeer waits until gn has read a compact-capable peer's
// hello, so announcements to it go out compact.
func waitCompactPeer(t *testing.T, gn *Node) {
	t.Helper()
	waitFor(t, "compact-capable peer", func() bool {
		gn.mu.Lock()
		defer gn.mu.Unlock()
		for _, p := range gn.peers {
			if p.hasFeature(wire.FeatureCompactRelay) {
				return true
			}
		}
		return false
	})
}

// collect reads c's frames into a channel until the pipe closes. The
// buffer holds more frames than any test here sends one peer, so the
// node's writer never waits on a test that reads late.
func collect(c *pipeClient) <-chan *wire.Message {
	ch := make(chan *wire.Message, 64)
	go func() {
		defer close(ch)
		for {
			m, err := wire.Read(c.r)
			if err != nil {
				return
			}
			ch <- m
		}
	}()
	return ch
}

// nextOf returns the next frame of kind from ch, skipping others.
func nextOf(t *testing.T, ch <-chan *wire.Message, kind byte) *wire.Message {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("connection closed before a %s frame", wire.KindName(kind))
			}
			if m.Kind == kind {
				return m
			}
		case <-deadline:
			t.Fatalf("no %s frame within 10 s", wire.KindName(kind))
		}
	}
}

// coinbasePayeeMatches counts raw's transactions with an output pushing
// raw's coinbase payee — the subupdate count subscribePipe's filter
// earns.
func coinbasePayeeMatches(t *testing.T, raw []byte) uint64 {
	t.Helper()
	b, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	pattern := watchPatternOf(t, raw)
	var n uint64
	for _, tx := range b.Txs {
		hit := false
		for _, out := range tx.Tidy.Outputs {
			for _, e := range script.PushedData(nil, out.LockScript) {
				hit = hit || bytes.Equal(e, pattern)
			}
		}
		if hit {
			n++
		}
	}
	return n
}

// TestTipExtensionReadsNoBlockBytes: announcing a mined tip extension
// to a compact peer and a light subscriber, and accepting it on the
// compact side, works from the accepted bytes — neither node reads a
// block back from its chain.
func TestTipExtensionReadsNoBlockBytes(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 2)
	below := storedRaws(t, src, h)

	announcer, announcerChain, _ := newServingNode(t, Config{Relay: &testSource{}, LightServe: true}, below)
	sub := collect(subscribePipe(t, announcer, raw))

	en, err := node.NewEBVNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	preload(t, en, src, h)
	receiverChain := &countingChain{Chain: EBVChain{Node: en}}
	receiver := NewNode(receiverChain, Config{Relay: sourceFromBlock(t, raw, func(int) bool { return true })})
	t.Cleanup(func() { receiver.Close() })
	a, b := net.Pipe()
	announcer.ServeConn(a)
	receiver.ServeConn(b)
	waitCompactPeer(t, announcer)
	waitCompactPeer(t, receiver)

	announcerChain.reads.Store(0)
	receiverChain.reads.Store(0)
	if err := announcer.SubmitLocal(raw); err != nil {
		t.Fatal(err)
	}
	// The receiver's pass ends by pulling what follows from the
	// announcer.
	waitFor(t, "receiver's post-accept pull", func() bool {
		return announcer.KindStats()[wire.GetBlocks].MsgsIn == 1
	})
	if got := nextOf(t, sub, wire.SubUpdate); got.Height != h {
		t.Fatalf("light push for height %d, want %d", got.Height, h)
	}
	if rs := receiver.RelayStats(); rs.Reconstructed != 1 || rs.Fallbacks != 0 {
		t.Fatalf("receiver relay stats %+v, want one compact reconstruction", rs)
	}
	if got := announcerChain.reads.Load(); got != 0 {
		t.Errorf("announcer read %d blocks back from its chain, want 0", got)
	}
	if got := receiverChain.reads.Load(); got != 0 {
		t.Errorf("receiver read %d blocks back from its chain, want 0", got)
	}
}

// TestAnnounceKeepsNothingOfTheScratch: the relay index an announcement
// caches and the light pushes it queues survive the caller scribbling
// over the accepted bytes and the ingest pool handing its scratch to
// another decode. Run under -race, the poisoning overlaps the index's
// reads, so any byte still shared is a reported race.
func TestAnnounceKeepsNothingOfTheScratch(t *testing.T) {
	_, src := buildEBVChain(t, 250)
	h, raw := richBlock(t, src, 2)
	gn, _, _ := newServingNode(t, Config{Relay: &testSource{}, LightServe: true}, storedRaws(t, src, h))
	sub := subscribePipe(t, gn, raw)
	peer, salt := attachCompactPipe(t, gn)

	accepted := append([]byte(nil), raw...)
	if err := gn.SubmitLocal(accepted); err != nil {
		t.Fatal(err)
	}
	hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	info := gn.relay.lookup(hdr.Hash())
	if info == nil {
		t.Fatal("no relay index cached for the announced block")
	}
	want := blockInfo(t, raw)
	other, err := src.BlockBytes(h - 1)
	if err != nil {
		t.Fatal(err)
	}

	poisoned := make(chan error, 1)
	go func() {
		for i := range accepted {
			accepted[i] = 0xA5
		}
		var held []*ingest.Scratch
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			s := ingest.Get()
			_, err = s.DecodeEBVBlock(other)
			held = append(held, s)
		}
		for _, s := range held {
			s.Release()
		}
		poisoned <- err
	}()
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(info.Compact(salt).Encode(nil), want.Compact(salt).Encode(nil)) {
			t.Fatalf("%s: cached compact announcement changed", when)
		}
		if info.TxCount() != want.TxCount() {
			t.Fatalf("%s: cached index holds %d txs, want %d", when, info.TxCount(), want.TxCount())
		}
		for i := 0; i < want.TxCount(); i++ {
			got, _ := info.TxBytes(i)
			w, _ := want.TxBytes(i)
			if !bytes.Equal(got, w) {
				t.Fatalf("%s: cached tx %d bytes changed", when, i)
			}
		}
	}
	check("while poisoning")
	if err := <-poisoned; err != nil {
		t.Fatalf("decoding into recycled scratch: %v", err)
	}
	check("after poisoning")

	m := nextOf(t, collect(peer), wire.CmpctBlock)
	if !bytes.Equal(m.Payload, want.Compact(salt).Encode(nil)) {
		t.Fatal("compact announcement on the wire differs from the block's")
	}
	push := nextOf(t, collect(sub), wire.SubUpdate)
	if push.Height != h || push.Hash != hdr.Hash() || push.Count != coinbasePayeeMatches(t, raw) {
		t.Fatalf("light push (height %d, hash %s, count %d), want (%d, %s, %d)",
			push.Height, push.Hash.Short(), push.Count, h, hdr.Hash().Short(), coinbasePayeeMatches(t, raw))
	}
}

// TestReorgAnnouncesOnlyCommittedTip: a fork-choice switch that fails
// validation and rolls back announces nothing and pushes nothing; the
// committed switch that follows announces and pushes its new tip, with
// the inv naming exactly that tip.
func TestReorgAnnouncesOnlyCommittedTip(t *testing.T) {
	c := buildForkRaws(t, 110, 1, 2)
	gn, _, eng := newServingNode(t, Config{LightServe: true}, c.prefixE, c.aE)
	newTip := c.bE[1]
	sub := collect(subscribePipe(t, gn, newTip))
	observer := collect(attachPipe(t, gn))
	feeder := attachPeer(t, gn)

	feed := func(raw []byte) error {
		hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
		if err != nil {
			t.Fatal(err)
		}
		return gn.acceptGossipBlock(feeder, hdr.Height, raw)
	}
	// B's first block ties A's work and is side-stored; a B successor
	// with a broken Merkle root then outweighs A, and the switch fails
	// on it and rolls back.
	if err := feed(c.bE[0]); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), newTip...)
	bad[44] ^= 0xFF // header MerkleRoot
	if err := feed(bad); err == nil {
		t.Fatal("a switch onto a broken block committed")
	}
	if st := eng.Stats(); st.FailedReorgs != 1 || st.Reorgs != 0 {
		t.Fatalf("engine stats %+v, want one failed switch", st)
	}
	if ls := gn.LightStats(); ls.Notifies != 0 || ls.Dropped != 0 {
		t.Fatalf("failed switch pushed to light subscribers: %+v", ls)
	}

	if err := feed(newTip); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Reorgs != 1 {
		t.Fatalf("engine stats %+v, want one committed switch", st)
	}
	hdr, err := blockmodel.DecodeHeader(newTip[:blockmodel.HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	if gn.chain.TipHash() != hdr.Hash() {
		t.Fatal("committed switch did not land on the new branch's tip")
	}
	// Frames arrive in order, so anything the failed switch announced
	// would come first.
	inv := nextOf(t, observer, wire.Inv)
	if inv.Height != hdr.Height || inv.Hash != hdr.Hash() {
		t.Fatalf("first inv names (%d, %s), want the new tip (%d, %s)",
			inv.Height, inv.Hash.Short(), hdr.Height, hdr.Hash().Short())
	}
	push := nextOf(t, sub, wire.SubUpdate)
	if push.Height != hdr.Height || push.Hash != hdr.Hash() {
		t.Fatalf("first light push names (%d, %s), want the new tip (%d, %s)",
			push.Height, push.Hash.Short(), hdr.Height, hdr.Hash().Short())
	}
	if n := gn.LightStats().Notifies; n != 1 {
		t.Fatalf("%d light pushes, want 1", n)
	}
}
