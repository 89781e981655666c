package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"ebv/internal/p2p/wire"
)

// submitter is one load-generator TCP connection to a node serving
// transaction submission: it speaks the tx/txack half of the wire
// protocol, as cmd/ebvload does, and skips everything else the node
// sends (block announcements reach every peer).
type submitter struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// ackTimeout bounds the wait for any one txack; a node that stops
// answering fails the run instead of hanging it.
const ackTimeout = 30 * time.Second

func dialSubmitter(addr string) (*submitter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &submitter{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := wire.Read(s.r)
	if err == nil && hello.Kind != wire.Hello {
		err = fmt.Errorf("got kind %d, want hello", hello.Kind)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("submitter handshake: %w", err)
	}
	if hello.Features&wire.FeatureTxSubmit == 0 {
		conn.Close()
		return nil, fmt.Errorf("node does not serve tx submission (features %08b)", hello.Features)
	}
	if err := wire.Write(s.w, &wire.Message{Kind: wire.Hello, Height: hello.Height}); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// dialSubmitters opens n connections to addr.
func dialSubmitters(addr string, n int) ([]*submitter, error) {
	conns := make([]*submitter, 0, n)
	for i := 0; i < n; i++ {
		s, err := dialSubmitter(addr)
		if err != nil {
			closeSubmitters(conns)
			return nil, err
		}
		conns = append(conns, s)
	}
	return conns, nil
}

func closeSubmitters(conns []*submitter) {
	for _, s := range conns {
		s.conn.Close()
	}
}

// send writes one transaction with request id reqid and flushes it.
func (s *submitter) send(reqid uint64, raw []byte) error {
	s.conn.SetWriteDeadline(time.Now().Add(ackTimeout))
	return wire.Write(s.w, &wire.Message{Kind: wire.Tx, Height: reqid, Payload: raw})
}

// readAck returns the next txack's request id and verdict code.
func (s *submitter) readAck() (uint64, byte, error) {
	for {
		s.conn.SetReadDeadline(time.Now().Add(ackTimeout))
		m, err := wire.Read(s.r)
		if err != nil {
			return 0, 0, err
		}
		if m.Kind == wire.TxAck {
			return m.Height, m.Code, nil
		}
	}
}
