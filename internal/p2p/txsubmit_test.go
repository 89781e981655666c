package p2p

import (
	"bufio"
	"net"
	"testing"
	"time"

	"ebv/internal/admission"
	"ebv/internal/hashx"
	"ebv/internal/loadgen"
	"ebv/internal/node"
	"ebv/internal/p2p/wire"
	"ebv/internal/sig"
)

// newTxSubmitNode is newEBVGossipNode plus an admission service wired
// into the gossip layer.
func newTxSubmitNode(t *testing.T) (*Node, *node.EBVNode) {
	t.Helper()
	en, err := node.NewEBVNode(node.Config{
		Dir:       t.TempDir(),
		Admission: &node.AdmissionConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	gn := NewNode(EBVChain{Node: en}, Config{TxSubmit: en.Admission})
	if _, err := gn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gn.Close() })
	return gn, en
}

// txClient is a raw TCP submitter: it completes the hello exchange
// and then speaks only tx/txack.
type txClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialTxClient(t *testing.T, addr string) *txClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &txClient{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}

	// The server speaks first on accept; echoing its height back keeps
	// both sides idle, so the only traffic is ours.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := wire.Read(c.r)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Kind != wire.Hello {
		t.Fatalf("expected hello, got kind %d", hello.Kind)
	}
	if hello.Features&wire.FeatureTxSubmit == 0 {
		t.Fatalf("admission node must advertise FeatureTxSubmit, got %08b", hello.Features)
	}
	if err := wire.Write(c.w, &wire.Message{Kind: wire.Hello, Height: hello.Height}); err != nil {
		t.Fatal(err)
	}
	return c
}

// submit sends one tx frame and returns the matching txack.
func (c *txClient) submit(t *testing.T, reqid uint64, raw []byte) *wire.Message {
	t.Helper()
	if err := wire.Write(c.w, &wire.Message{Kind: wire.Tx, Height: reqid, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := wire.Read(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.TxAck {
			continue // unrelated gossip (an inv, say)
		}
		if m.Height != reqid {
			t.Fatalf("txack for request %d, want %d", m.Height, reqid)
		}
		return m
	}
}

// TestTxSubmitOverTCP drives the full path end to end: a raw TCP
// client submits real proved transactions, the admission service
// validates and pools them, and each verdict comes back as a txack
// with the stable one-byte code.
func TestTxSubmitOverTCP(t *testing.T) {
	_, src := buildEBVChain(t, 150)
	tip, _ := src.TipHeight()

	gn, en := newTxSubmitNode(t)
	preload(t, en, src, tip+1)

	corpus, err := loadgen.Prepare(src, sig.SimSig{}, 2, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 2 {
		t.Skipf("only %d spendable outputs at this scale", len(corpus))
	}

	c := dialTxClient(t, gn.Addr())

	ack := c.submit(t, 7, corpus[0])
	if ack.Code != admission.CodeOK {
		t.Fatalf("valid submission rejected: %s", admission.CodeString(ack.Code))
	}
	if ack.Hash == (hashx.Hash{}) {
		t.Fatal("admit ack must carry the transaction id")
	}
	waitFor(t, "pooled transaction", func() bool { return en.Pool.Len() == 1 })
	if !en.Pool.Contains(ack.Hash) {
		t.Fatal("acked id must be the pooled id")
	}

	// Resubmission of a pooled transaction is a duplicate.
	if ack := c.submit(t, 8, corpus[0]); ack.Code != admission.CodeDuplicate {
		t.Fatalf("resubmission: got %s, want duplicate", admission.CodeString(ack.Code))
	}

	// Undecodable bytes are rejected as malformed, with a zero hash.
	if ack := c.submit(t, 9, []byte{0xde, 0xad, 0xbe, 0xef}); ack.Code != admission.CodeMalformed {
		t.Fatalf("garbage: got %s, want malformed", admission.CodeString(ack.Code))
	}

	// A second valid submission lands alongside the first.
	if ack := c.submit(t, 10, corpus[1]); ack.Code != admission.CodeOK {
		t.Fatalf("second submission rejected: %s", admission.CodeString(ack.Code))
	}
	waitFor(t, "second pooled transaction", func() bool { return en.Pool.Len() == 2 })
}

// TestTxSubmitWithoutService pins the downgrade path: a node without
// an admission service still answers tx frames — with CodeClosed —
// instead of dropping the peer, and does not advertise the feature.
func TestTxSubmitWithoutService(t *testing.T) {
	_, src := buildEBVChain(t, 30)
	tip, _ := src.TipHeight()
	gn, en := newEBVGossipNode(t, Config{})
	preload(t, en, src, tip+1)

	conn, err := net.Dial("tcp", gn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := wire.Read(r)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Features&wire.FeatureTxSubmit != 0 {
		t.Fatal("node without admission must not advertise FeatureTxSubmit")
	}
	if err := wire.Write(w, &wire.Message{Kind: wire.Hello, Height: hello.Height}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(w, &wire.Message{Kind: wire.Tx, Height: 1, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := wire.Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.TxAck {
			continue
		}
		if m.Code != admission.CodeClosed {
			t.Fatalf("got %s, want closed", admission.CodeString(m.Code))
		}
		return
	}
}
