package p2p

import (
	"bufio"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/light"
	"ebv/internal/loadgen"
	"ebv/internal/node"
	"ebv/internal/p2p/wire"
	"ebv/internal/sig"
)

// pipeClient is the far end of a net.Pipe peer. A pipe buffers
// nothing, so a client that stops reading stalls the node's writer on
// its very first frame.
type pipeClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// attachPipe serves a pipe peer on gn and completes the hello
// exchange from the client side.
func attachPipe(t *testing.T, gn *Node) *pipeClient {
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
	if err := wire.Write(c.w, &wire.Message{Kind: wire.Hello, Height: hello.Height}); err != nil {
		t.Fatal(err)
	}
	client.SetDeadline(time.Time{})
	return c
}

// pipePeer returns gn's live peer on a net.Pipe connection (the only
// one in these tests; TCP peers carry a host:port id).
func pipePeer(gn *Node) *peer {
	gn.mu.Lock()
	defer gn.mu.Unlock()
	for id, p := range gn.peers {
		if strings.HasPrefix(id, "pipe") {
			return p
		}
	}
	return nil
}

// TestHelloFirstWhileAnnouncing: blocks announced while peers connect
// must never put an inv on the wire ahead of the node's hello — the
// remote would read it as a failed handshake and drop the connection.
func TestHelloFirstWhileAnnouncing(t *testing.T) {
	_, src := buildEBVChain(t, 20)
	tip, _ := src.TipHeight()
	raw, err := src.BlockBytes(tip)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	gn := NewNode(StaticChain{Store: src}, Config{MaxPeers: 1000})
	t.Cleanup(func() { gn.Close() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gn.announce(raw, hdr, "")
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 300; i++ {
		server, client := net.Pipe()
		gn.ServeConn(server)
		client.SetDeadline(time.Now().Add(10 * time.Second))
		first, err := wire.Read(bufio.NewReader(client))
		if err != nil {
			t.Fatalf("connection %d: reading the first frame: %v", i, err)
		}
		if first.Kind != wire.Hello {
			t.Fatalf("connection %d: first frame is %s, want hello", i, wire.KindName(first.Kind))
		}
		if err := wire.Write(bufio.NewWriter(client), &wire.Message{Kind: wire.Hello, Height: first.Height}); err != nil {
			t.Fatalf("connection %d: answering hello: %v", i, err)
		}
		client.Close()
	}
}

// TestNeverReadingSubmitter: a submitter that sends transactions and
// never reads its acks must not delay anyone else — not another
// submitter's acks (the admission collector delivers both), not block
// relay to another node — and its queue must stay within budget until
// it overflows and the peer is dropped.
func TestNeverReadingSubmitter(t *testing.T) {
	const budget = 32 << 10
	_, src := buildEBVChain(t, 150)
	tip, _ := src.TipHeight()
	en, err := node.NewEBVNode(node.Config{Dir: t.TempDir(), Admission: &node.AdmissionConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	preload(t, en, src, tip) // the last block is relayed live below
	gn := NewNode(EBVChain{Node: en}, Config{TxSubmit: en.Admission, WriteTimeout: 30 * time.Second})
	gn.queueBudget = budget
	if _, err := gn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gn.Close() })

	corpus, err := loadgen.Prepare(src, sig.SimSig{}, 3, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 3 {
		t.Skipf("only %d spendable outputs at this scale", len(corpus))
	}

	b, bNode := newEBVGossipNode(t, Config{})
	preload(t, bNode, src, tip)
	if err := b.Connect(gn.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "relay peer", func() bool { return gn.PeerCount() == 1 })

	// Stall: two valid submissions, whose acks come from the admission
	// collector, then malformed ones acked at intake. Nothing is read.
	stalled := attachPipe(t, gn)
	submit := func(reqid uint64, raw []byte) error {
		stalled.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		return wire.Write(stalled.w, &wire.Message{Kind: wire.Tx, Height: reqid, Payload: raw})
	}
	garbage := []byte{0xde, 0xad}
	const held = 50
	for i := 0; i < held; i++ {
		raw := garbage
		if i < 2 {
			raw = corpus[i]
		}
		if err := submit(uint64(i), raw); err != nil {
			t.Fatal(err)
		}
	}
	p := pipePeer(gn)
	if p == nil {
		t.Fatal("stalled peer not registered")
	}
	ackBytes := wire.QueuedBytes(&wire.Message{Kind: wire.TxAck})
	waitFor(t, "acks held for the stalled submitter", func() bool { return p.Queued() >= held*ackBytes })

	// Another submitter's ack arrives promptly.
	c := dialTxClient(t, gn.Addr())
	start := time.Now()
	c.submit(t, 1, corpus[2])
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ack took %v behind a stalled submitter", d)
	}

	// So does block relay to the second node.
	last, err := src.BlockBytes(tip)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if err := gn.SubmitLocal(last); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "relay to the second node", func() bool {
		got, ok := bNode.Chain.TipHeight()
		return ok && got == tip
	})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("relay took %v behind a stalled submitter", d)
	}

	// Keep submitting: the queue stays within budget until the peer is
	// dropped for overflowing it.
	for i := held; ; i++ {
		if q := p.Queued(); q > budget {
			t.Fatalf("stalled queue holds %d bytes, budget %d", q, budget)
		}
		if err := submit(uint64(i), garbage); err != nil {
			break
		}
		if i > 100*budget/ackBytes {
			t.Fatal("stalled submitter never dropped")
		}
	}
	waitFor(t, "stalled peer removed", func() bool { return pipePeer(gn) == nil })
	if err := p.CloseReason(); !errors.Is(err, wire.ErrQueueOverflow) {
		t.Fatalf("stalled peer closed for %v, want queue overflow", err)
	}
}

// TestPacedBlockServingStalls: the getblocks serve loop waits for a
// requester's queue instead of overflowing it, so a requester that
// never reads holds at most the budget and is dropped by the write
// deadline, not the overflow policy.
func TestPacedBlockServingStalls(t *testing.T) {
	_, src := buildEBVChain(t, 60)
	// Room for a few blocks, so the loop both queues ahead and waits.
	budget := 0
	for h := uint64(0); h < uint64(src.Count()); h++ {
		raw, err := src.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		budget = max(budget, 4*wire.QueuedBytes(&wire.Message{Payload: raw}))
	}
	gn := NewNode(StaticChain{Store: src}, Config{WriteTimeout: 300 * time.Millisecond})
	gn.queueBudget = budget
	t.Cleanup(func() { gn.Close() })

	c := attachPipe(t, gn)
	p := pipePeer(gn)
	if err := wire.Write(c.w, &wire.Message{Kind: wire.GetBlocks, Height: 0, Count: wire.MaxBatch}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pipePeer(gn) != nil {
		if q := p.Queued(); q > budget {
			t.Fatalf("requester queue holds %d bytes, budget %d", q, budget)
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled requester never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.CloseReason(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled requester closed for %v, want the write deadline", err)
	}
}

// TestStalledLightSubscriberGetsDropFlag: a subscriber that stops
// reading keeps its undelivered notifications in its bounded
// subscription queue — overflow sets the drop flag — rather than in an
// unbounded peer queue, and it keeps its connection.
func TestStalledLightSubscriberGetsDropFlag(t *testing.T) {
	gn, last := newLightServer(t, 30)
	c := attachPipe(t, gn)
	f := &light.Filter{Patterns: [][]byte{watchPatternOf(t, last)}}
	if err := wire.Write(c.w, &wire.Message{Kind: wire.Subscribe, Payload: f.Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return gn.LightStats().Subscribers == 1 })
	p := pipePeer(gn)
	// Our hello's charge is released only after the writer's flush
	// returns; wait for it so the bound below counts only what the
	// stall holds.
	waitFor(t, "hello drained", func() bool { return p.Queued() == 0 })

	// The mined block's inv stalls the writer; every push after it waits
	// in the subscription queue.
	if err := gn.SubmitLocal(last); err != nil {
		t.Fatal(err)
	}
	b, err := blockmodel.DecodeEBVBlock(last)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*subQueueLen; i++ {
		gn.notifyLight(b, b.Header.Hash(), time.Now())
	}
	if gn.LightStats().Dropped == 0 {
		t.Fatal("no notification dropped behind a stalled subscriber")
	}
	if q, most := p.Queued(), 2*wire.QueuedBytes(&wire.Message{}); q > most {
		t.Fatalf("subscriber peer queue holds %d bytes, want at most an inv and a subupdate (%d)", q, most)
	}

	// Reading again delivers a subupdate carrying the drop flag, on the
	// same connection.
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; ; i++ {
		m, err := wire.Read(c.r)
		if err != nil {
			t.Fatalf("reading after the stall: %v", err)
		}
		if m.Kind == wire.SubUpdate && m.Code&1 != 0 {
			break
		}
		if i > 2*subQueueLen {
			t.Fatal("no subupdate carried the drop flag")
		}
	}
	if pipePeer(gn) == nil {
		t.Fatal("stalled subscriber was disconnected")
	}
}
