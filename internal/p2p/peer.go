package p2p

import (
	"sync/atomic"

	"ebv/internal/p2p/wire"
)

// peer is one live connection: the wire session, whose out-queue every
// frame to the peer goes through (see wire.Conn), and what the gossip
// protocol keeps about the peer. The admission collector's txacks,
// relay fan-out and light pushes therefore never wait on a socket; the
// block-serving loops and the light drain keep backpressure with
// SendPaced.
type peer struct {
	*wire.Conn
	id string
	// features holds the peer's hello feature bits. Atomic because
	// announce() consults it from the submitting goroutine while the
	// handshake may still be writing it; until the hello arrives it
	// reads zero and the peer is treated as featureless.
	features  atomic.Uint32
	nonce     uint64 // our hello nonce: the salt for compact blocks we announce here
	peerNonce uint64 // the peer's hello nonce: the salt for compact blocks it announces
	strikes   atomic.Int32
}

func (p *peer) hasFeature(bit byte) bool {
	return byte(p.features.Load())&bit != 0
}
