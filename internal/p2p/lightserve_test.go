package p2p

import (
	"bufio"
	"net"
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/forkchoice"
	"ebv/internal/light"
	"ebv/internal/node"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
)

// newLightServer builds a full node holding all but the last block of
// a freshly rendered chain, wrapped for gossip with light serving on.
// It returns the gossip node and the held-back final block's bytes —
// the block the test mines live so pushes have something to match.
func newLightServer(t *testing.T, blocks int) (*Node, []byte) {
	t.Helper()
	_, store := buildEBVChain(t, blocks)
	en, err := node.NewEBVNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	eng := en.EnableForkChoice(forkchoice.Config{})
	tip, _ := store.TipHeight()
	for h := uint64(0); h < tip; h++ {
		raw, err := store.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := en.AcceptBlock(raw, ""); err != nil {
			t.Fatal(err)
		}
	}
	last, err := store.BlockBytes(tip)
	if err != nil {
		t.Fatal(err)
	}
	gn := NewNode(EBVChain{Node: en}, Config{Forks: eng, LightServe: true})
	t.Cleanup(func() { gn.Close() })
	return gn, last
}

// watchPatternOf extracts a filter pattern from a serialized block:
// the first data element pushed by the coinbase's locking script (for
// P2PKH, the payee address).
func watchPatternOf(t *testing.T, raw []byte) []byte {
	t.Helper()
	b, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	elems := script.PushedData(nil, b.Txs[0].Tidy.Outputs[0].LockScript)
	if len(elems) == 0 {
		t.Fatal("coinbase lock script pushes no data")
	}
	return elems[0]
}

// TestLightClientEndToEnd runs the whole tier over an in-memory pipe:
// a light client syncs headers from a full node, subscribes a filter
// watching the next block's coinbase payee, and — when that block is
// mined — receives a push, downloads exactly that block by hash, and
// fully verifies it against its own header chain, with zero full-block
// (by-height) downloads.
func TestLightClientEndToEnd(t *testing.T) {
	gn, last := newLightServer(t, 130)
	pattern := watchPatternOf(t, last)

	server, client := net.Pipe()
	gn.ServeConn(server)
	c := light.NewClient(client, light.Config{
		Filter: &light.Filter{Patterns: [][]byte{pattern}},
		Logf:   t.Logf,
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	select {
	case <-c.Synced():
	case <-time.After(10 * time.Second):
		t.Fatal("client never synced headers")
	}
	if st := c.Stats(); !st.TipOK || st.TipHeight != 128 {
		t.Fatalf("synced at tip %d (ok %v), want 128", st.TipHeight, st.TipOK)
	}

	// Mine the held-back block; the announce path must push it.
	if err := gn.SubmitLocal(last); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().BlocksVerified != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().BlocksVerified != 1 {
		t.Fatalf("timeout: client %+v server %+v", c.Stats(), gn.LightStats())
	}
	st := c.Stats()
	if st.TipHeight != 129 {
		t.Errorf("tip %d after push, want 129", st.TipHeight)
	}
	if st.SubUpdates == 0 || st.BlocksRequested != 1 {
		t.Errorf("subupdates %d, requested %d — want a single push-driven fetch", st.SubUpdates, st.BlocksRequested)
	}
	if st.FullBlockDownloads != 0 || st.Unavailable != 0 || st.VerifyFailures != 0 {
		t.Errorf("full %d unavailable %d failures %d, want all zero", st.FullBlockDownloads, st.Unavailable, st.VerifyFailures)
	}
	ls := gn.LightStats()
	if ls.Subscribers != 1 || ls.Notifies == 0 || ls.BlocksServed == 0 {
		t.Errorf("serve stats %+v, want 1 subscriber with a notify and a served block", ls)
	}

	// Disconnect unindexes the subscription.
	c.Close()
	waitFor(t, "subscription removed", func() bool {
		return gn.LightStats().Subscribers == 0
	})
}

// TestLightClientRefusesNonServingNode: a client with a filter needs
// FeatureLightServe; against a plain gossip node Start must fail fast
// instead of subscribing into the void.
func TestLightClientRefusesNonServingNode(t *testing.T) {
	_, store := buildEBVChain(t, 20)
	gn := NewNode(StaticChain{Store: store}, Config{})
	t.Cleanup(func() { gn.Close() })
	server, client := net.Pipe()
	gn.ServeConn(server)
	c := light.NewClient(client, light.Config{
		Filter: &light.Filter{Patterns: [][]byte{{0x01}}},
	})
	if err := c.Start(); err == nil {
		c.Close()
		t.Fatal("Start succeeded against a non-serving node")
	}
	client.Close()
}

// TestHandshakeIgnoresUnknownFeatureBits is the p2p half of the
// forward-compat contract: a peer advertising feature bits this
// version does not know (payload-free, per the wire rule) must
// complete the handshake and be served normally afterwards.
func TestHandshakeIgnoresUnknownFeatureBits(t *testing.T) {
	_, store := buildEBVChain(t, 10)
	gn := NewNode(StaticChain{Store: store}, Config{})
	t.Cleanup(func() { gn.Close() })

	server, client := net.Pipe()
	gn.ServeConn(server)
	r := bufio.NewReader(client)
	w := bufio.NewWriter(client)
	client.SetDeadline(time.Now().Add(5 * time.Second))

	first, err := wire.Read(r)
	if err != nil || first.Kind != wire.Hello {
		t.Fatalf("server hello: %v", err)
	}
	// Future-feature hello: unknown bits, no extra payload.
	if err := wire.Write(w, &wire.Message{Kind: wire.Hello, Height: 10, Features: 1<<6 | 1<<7}); err != nil {
		t.Fatal(err)
	}
	// The connection must still serve requests.
	if err := wire.Write(w, &wire.Message{Kind: wire.GetBlocks, Height: 0, Count: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.Read(r)
	if err != nil || m.Kind != wire.Block || m.Height != 0 {
		t.Fatalf("peer with unknown feature bits was not served: %+v, %v", m, err)
	}
	client.Close()
}

// TestResubscribeReplacesFilter: a second subscribe from the same peer
// swaps the filter atomically — one live subscription, both counted.
func TestResubscribeReplacesFilter(t *testing.T) {
	gn, last := newLightServer(t, 30)
	server, client := net.Pipe()
	gn.ServeConn(server)
	r := bufio.NewReader(client)
	w := bufio.NewWriter(client)
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.Read(r); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(w, &wire.Message{Kind: wire.Hello, Height: 0}); err != nil {
		t.Fatal(err)
	}
	pattern := watchPatternOf(t, last)
	for i := 0; i < 2; i++ {
		f := &light.Filter{Patterns: [][]byte{pattern, {byte(i)}}}
		if err := wire.Write(w, &wire.Message{Kind: wire.Subscribe, Payload: f.Encode(nil)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both subscribes processed", func() bool {
		ls := gn.LightStats()
		return ls.Subscribes == 2 && ls.Subscribers == 1
	})
	client.Close()
	waitFor(t, "subscription removed on disconnect", func() bool {
		return gn.LightStats().Subscribers == 0
	})
}
