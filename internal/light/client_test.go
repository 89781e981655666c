package light

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"ebv/internal/hashx"
	"ebv/internal/p2p/wire"
)

// startPiped starts a client on one end of a net.Pipe and completes the
// hello exchange from the other, returned as a wire session.
func startPiped(t *testing.T, cfg Config) (*Client, *wire.Conn) {
	t.Helper()
	server, client := net.Pipe()
	c := NewClient(client, cfg)
	srv := wire.NewConn(server, wire.ConnConfig{})
	t.Cleanup(func() { srv.Close(nil) })
	started := make(chan error, 1)
	go func() { started <- c.Start() }()
	if _, err := srv.Handshake(&wire.Message{Kind: wire.Hello, Features: wire.FeatureLightServe}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, srv
}

// pushUnavailable has a piped server push n subupdates to a subscribed
// client, answering the first answered of the getlightblock requests
// empty (as an honest server does for an evicted block) and ignoring
// the rest, and returns the client closed once it has handled them all.
func pushUnavailable(t *testing.T, n, answered int) *Client {
	t.Helper()
	c, srv := startPiped(t, Config{Filter: &Filter{Patterns: [][]byte{[]byte("watched")}}})
	hashOf := func(i int) hashx.Hash { return hashx.Sum(binary.AppendUvarint(nil, uint64(i))) }
	ignored := make(map[hashx.Hash]bool)
	for i := answered; i < n; i++ {
		ignored[hashOf(i)] = true
	}
	go func() {
		for {
			m, err := srv.Read(time.Now().Add(30 * time.Second))
			if err != nil {
				return
			}
			switch {
			case m.Kind == wire.GetHeaders:
				srv.Send(&wire.Message{Kind: wire.Headers})
			case m.Kind == wire.GetLightBlock && !ignored[m.Hash]:
				srv.Send(&wire.Message{Kind: wire.LightBlock, Hash: m.Hash})
			}
		}
	}()
	for i := 0; i < n; i++ {
		push := &wire.Message{Kind: wire.SubUpdate, Height: uint64(i), Hash: hashOf(i), Count: 1}
		if err := srv.SendPaced(push, 1<<16); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for st := c.Stats(); st.Unavailable < uint64(answered) || st.BlocksRequested < uint64(n); st = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("client stalled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	c.Close() // the read loop has exited: its maps are ours to read
	return c
}

// TestNotifiedStaysBounded: an empty lightblock answer is a final
// outcome and releases the push's arrival time, and pushes the server
// never answers hold at most maxPendingBlocks arrival times while each
// is still requested.
func TestNotifiedStaysBounded(t *testing.T) {
	if c := pushUnavailable(t, 10000, 10000); len(c.notified) != 0 {
		t.Fatalf("%d arrival times held after 10000 unavailable answers", len(c.notified))
	}
	if c := pushUnavailable(t, 2*maxPendingBlocks, 0); len(c.notified) != maxPendingBlocks {
		t.Fatalf("%d arrival times held for %d unanswered pushes, want the bound %d",
			len(c.notified), 2*maxPendingBlocks, maxPendingBlocks)
	}
}

// TestStalledServerEndsClient: a server that sends its hello and then
// never reads ends the client within the write timeout, with Done
// closed and Err set, and the client's queue never exceeds its budget
// even while the server keeps announcing blocks it must ask about.
func TestStalledServerEndsClient(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	c := NewClient(client, Config{
		Filter:       &Filter{Patterns: [][]byte{[]byte("watched")}},
		WriteTimeout: 200 * time.Millisecond,
	})
	go func() {
		w := bufio.NewWriter(server)
		if wire.Write(w, &wire.Message{Kind: wire.Hello, Features: wire.FeatureLightServe}) != nil {
			return
		}
		for i := uint64(0); ; i++ {
			inv := &wire.Message{Kind: wire.Inv, Height: i, Hash: hashx.Sum(binary.AppendUvarint(nil, i))}
			if wire.Write(w, inv) != nil {
				return
			}
		}
	}()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		if q := c.conn.Queued(); q > wire.DefaultBudget {
			t.Fatalf("client queue holds %d bytes, budget %d", q, wire.DefaultBudget)
		}
		select {
		case <-c.Done():
			done = true
		case <-deadline:
			t.Fatal("client outlived a server that never reads")
		case <-time.After(time.Millisecond):
		}
	}
	if c.Err() == nil {
		t.Fatal("client ended without an error")
	}
	t.Logf("client ended: %v", c.Err())
}
