package statesync

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ebv/internal/p2p/wire"
)

// ErrNoStateSync reports a peer that did not advertise the statesync
// feature in its hello.
var ErrNoStateSync = errors.New("statesync: peer does not support state sync")

// errUnavailable reports a peer that answered a snapshot request with
// an empty payload ("I have nothing to serve"). A failover signal,
// not a protocol offence.
var errUnavailable = errors.New("statesync: peer has no snapshot data")

// syncConn is a dedicated protocol connection for snapshot requests.
// It shares the gossip wire session, so the remote end is just a
// normal peer serving getmanifest/getchunk; pushes the remote makes
// on its own (inv announcements) are skipped while waiting for a
// response.
type syncConn struct {
	*wire.Conn
}

// dialSync connects to addr, performs the gossip handshake
// advertising FeatureStateSync, and verifies the peer advertises it
// back. Received bytes are counted into counters; each request's write
// is bounded by writeTimeout.
func dialSync(addr string, timeout, writeTimeout time.Duration, counters *wire.Counters) (*syncConn, error) {
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("statesync: dial %s: %w", addr, err)
	}
	c := &syncConn{wire.NewConn(raw, wire.ConnConfig{WriteTimeout: writeTimeout, Counters: counters})}
	// Height 0 = "empty chain": the peer has no reason to push blocks
	// at us, and we never ask for any on this connection.
	hello, err := c.Handshake(&wire.Message{Kind: wire.Hello, Height: 0, Features: wire.FeatureStateSync}, timeout)
	if err != nil {
		c.Close(nil)
		return nil, fmt.Errorf("statesync: handshake %s: bad hello (%v)", addr, err)
	}
	if hello.Features&wire.FeatureStateSync == 0 {
		c.Close(nil)
		return nil, fmt.Errorf("%w: %s", ErrNoStateSync, addr)
	}
	return c, nil
}

// request sends req and waits for a response of the wanted kind (and,
// for chunks, the wanted index), skipping unrelated gossip the peer
// pushes in between. The wait is bounded by timeout.
func (c *syncConn) request(req *wire.Message, wantKind byte, wantIndex uint64, timeout time.Duration) (*wire.Message, error) {
	deadline := time.Now().Add(timeout)
	if err := c.Send(req); err != nil {
		return nil, err
	}
	for {
		m, err := c.Read(deadline)
		if err != nil {
			return nil, err
		}
		switch {
		case m.Kind == wantKind && (wantKind != wire.Chunk || m.Height == wantIndex):
			return m, nil
		case m.Kind == wire.Inv || m.Kind == wire.Block:
			// Gossip pushed at us while we wait; ignore.
		case m.Kind == wire.GetBlocks || m.Kind == wire.GetManifest || m.Kind == wire.GetChunk:
			// The peer should not be requesting from us (we said empty
			// chain and serve nothing); ignore rather than stall them.
		default:
			return nil, fmt.Errorf("statesync: unexpected %d while waiting for %d", m.Kind, wantKind)
		}
	}
}

// getManifest fetches the peer's manifest bytes.
func (c *syncConn) getManifest(timeout time.Duration) ([]byte, error) {
	m, err := c.request(&wire.Message{Kind: wire.GetManifest}, wire.Manifest, 0, timeout)
	if err != nil {
		return nil, err
	}
	if len(m.Payload) == 0 {
		return nil, errUnavailable
	}
	return m.Payload, nil
}

// getChunk fetches chunk index. An empty payload means the peer
// cannot serve it.
func (c *syncConn) getChunk(index uint64, timeout time.Duration) ([]byte, error) {
	m, err := c.request(&wire.Message{Kind: wire.GetChunk, Height: index}, wire.Chunk, index, timeout)
	if err != nil {
		return nil, err
	}
	if len(m.Payload) == 0 {
		return nil, errUnavailable
	}
	return m.Payload, nil
}

// peerState tracks one configured peer across the sync: its cached
// connection and failure count. The conn is only touched by the
// worker currently holding the peer (busy flag), so it needs no lock
// of its own.
type peerState struct {
	addr  string
	conn  *syncConn // nil when not connected
	fails int
	dead  bool
	busy  bool
}

// peerSet hands out peers to download workers — least-failed first,
// one worker per peer at a time — and retires peers that keep
// failing.
type peerSet struct {
	mu        sync.Mutex
	cond      *sync.Cond
	failLimit int
	peers     []*peerState
}

func newPeerSet(addrs []string, failLimit int) *peerSet {
	ps := &peerSet{failLimit: failLimit}
	ps.cond = sync.NewCond(&ps.mu)
	for _, a := range addrs {
		ps.peers = append(ps.peers, &peerState{addr: a})
	}
	return ps
}

// acquire returns exclusive use of the live peer with the fewest
// failures that is not in tried, blocking while every candidate is
// busy with another worker. It returns nil when no usable peer
// remains (all dead or already tried for this request).
func (ps *peerSet) acquire(tried map[*peerState]bool) *peerState {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		var best *peerState
		anyBusy := false
		for _, p := range ps.peers {
			if p.dead || tried[p] {
				continue
			}
			if p.busy {
				anyBusy = true
				continue
			}
			if best == nil || p.fails < best.fails {
				best = p
			}
		}
		if best != nil {
			best.busy = true
			return best
		}
		if !anyBusy {
			return nil
		}
		ps.cond.Wait()
	}
}

// release returns an acquired peer after a successful request.
func (ps *peerSet) release(p *peerState) {
	ps.mu.Lock()
	p.busy = false
	ps.mu.Unlock()
	ps.cond.Broadcast()
}

// fail releases an acquired peer with a penalty: its connection is
// dropped, and at failLimit the peer is retired for the rest of the
// sync.
func (ps *peerSet) fail(p *peerState) {
	ps.mu.Lock()
	p.fails++
	if p.conn != nil {
		p.conn.Close(nil)
		p.conn = nil
	}
	if p.fails >= ps.failLimit {
		p.dead = true
	}
	p.busy = false
	ps.mu.Unlock()
	ps.cond.Broadcast()
}

// closeAll drops every cached connection.
func (ps *peerSet) closeAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.peers {
		if p.conn != nil {
			p.conn.Close(nil)
			p.conn = nil
		}
	}
}
