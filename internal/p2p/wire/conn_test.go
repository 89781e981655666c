package wire

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"
)

// TestPacedSendKeepsBackpressure: a producer sending through SendPaced,
// as the load generator does, waits while the remote stops reading
// instead of overflowing the budget or being dropped, and every frame
// arrives in order once the remote reads again.
func TestPacedSendKeepsBackpressure(t *testing.T) {
	const budget, frames = 4 << 10, 64
	local, remote := net.Pipe()
	defer remote.Close()
	c := NewConn(local, ConnConfig{WriteTimeout: 10 * time.Second, Budget: budget})
	defer c.Close(nil)
	go Write(bufio.NewWriter(remote), &Message{Kind: Hello})
	if _, err := c.Handshake(&Message{Kind: Hello}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte{0x7e}, 512)
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := c.SendPaced(&Message{Kind: Tx, Height: uint64(i), Payload: payload}, 0); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	// Stall: the remote reads nothing for a while.
	for stall := time.Now().Add(300 * time.Millisecond); time.Now().Before(stall); time.Sleep(time.Millisecond) {
		if q := c.Queued(); q > budget {
			t.Fatalf("paced queue holds %d bytes, budget %d", q, budget)
		}
	}
	if err := c.CloseReason(); err != nil {
		t.Fatalf("paced sender dropped during the stall: %v", err)
	}

	r := bufio.NewReader(remote)
	remote.SetReadDeadline(time.Now().Add(10 * time.Second))
	if m, err := Read(r); err != nil || m.Kind != Hello {
		t.Fatalf("first frame %+v, %v; want hello", m, err)
	}
	for i := 0; i < frames; i++ {
		m, err := Read(r)
		if err != nil || m.Kind != Tx || m.Height != uint64(i) || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("frame %d: %+v, %v", i, m, err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("paced send: %v", err)
	}
	if err := c.CloseReason(); err != nil {
		t.Fatalf("connection closed: %v", err)
	}
}
