package p2p

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/hashx"
	"ebv/internal/p2p/wire"
	"ebv/internal/relay"
)

// Compact block relay, node side. The sender half indexes recently
// announced blocks (relayState.infos) so it can push short-id
// announcements and answer getblocktxn; the receiver half tracks
// in-flight reconstructions (relayState.pending), each bounded by
// Config.RelayTimeout. Every failure — collision, timeout, mismatch,
// unavailable block — lands in fullFallback, which re-fetches through
// the pre-existing full-block machinery and never costs the peer its
// connection. A peer whose announcements keep failing reconstruction
// accumulates strikes; past maxRelayStrikes its compact announcements
// are short-circuited straight to the full-block path.

// maxRelayStrikes is how many failed reconstructions a peer gets
// before its compact announcements are no longer trusted.
const maxRelayStrikes = 3

// relayInfoCap bounds the sender-side cache of recently announced
// blocks kept for getblocktxn service.
const relayInfoCap = 8

// newNonce draws the per-connection short-id salt.
func newNonce() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("p2p: no entropy for relay nonce: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// KindStat is one wire kind's traffic totals since the node was
// created. Frame overhead (kind byte + length varint) is included, so
// the sums across kinds match BytesRead/BytesWritten up to TCP-level
// concerns.
type KindStat struct {
	MsgsIn, BytesIn, MsgsOut, BytesOut int64
}

// KindStats returns per-kind traffic counters for every kind with any
// traffic. The bench harness and check.sh read bytes-saved numbers
// from here rather than estimating them.
func (n *Node) KindStats() map[byte]KindStat {
	out := make(map[byte]KindStat)
	for k := 0; k < 256; k++ {
		s := KindStat{
			MsgsIn:   n.traffic.MsgsIn[k].Load(),
			BytesIn:  n.traffic.FrameBytesIn[k].Load(),
			MsgsOut:  n.traffic.MsgsOut[k].Load(),
			BytesOut: n.traffic.FrameBytesOut[k].Load(),
		}
		if s.MsgsIn != 0 || s.MsgsOut != 0 {
			out[byte(k)] = s
		}
	}
	return out
}

// RelayStats is a snapshot of the compact-relay counters.
type RelayStats struct {
	CompactSent     int64 // compact announcements pushed to peers
	CompactReceived int64 // compact announcements received
	Reconstructed   int64 // blocks accepted via compact reconstruction
	TxnsRequested   int64 // transactions requested through getblocktxn
	Fallbacks       int64 // reconstructions abandoned for the full-block path
}

// RelayStats returns a snapshot of the compact-relay counters.
func (n *Node) RelayStats() RelayStats {
	return RelayStats{
		CompactSent:     n.relay.stats.CompactSent.Load(),
		CompactReceived: n.relay.stats.CompactReceived.Load(),
		Reconstructed:   n.relay.stats.Reconstructed.Load(),
		TxnsRequested:   n.relay.stats.TxnsRequested.Load(),
		Fallbacks:       n.relay.stats.Fallbacks.Load(),
	}
}

// pendingRecon is one in-flight reconstruction awaiting a blocktxn.
type pendingRecon struct {
	rec     *relay.Reconstructor
	peer    *peer
	missing []int
	timer   *time.Timer
}

// relayState holds both halves of the node's relay machinery.
type relayState struct {
	stats struct {
		CompactSent, CompactReceived, Reconstructed, TxnsRequested, Fallbacks atomic.Int64
	}

	mu      sync.Mutex
	infos   map[hashx.Hash]*relay.BlockInfo
	order   []hashx.Hash // infos insertion order, oldest first
	pending map[hashx.Hash]*pendingRecon
}

func (rs *relayState) init() {
	rs.infos = make(map[hashx.Hash]*relay.BlockInfo)
	rs.pending = make(map[hashx.Hash]*pendingRecon)
}

// lookup returns the cached sender-side index for a block hash.
func (rs *relayState) lookup(h hashx.Hash) *relay.BlockInfo {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.infos[h]
}

// cache stores a sender-side index, evicting the oldest past the cap.
func (rs *relayState) cache(info *relay.BlockInfo) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.infos[info.Hash]; ok {
		return
	}
	rs.infos[info.Hash] = info
	rs.order = append(rs.order, info.Hash)
	for len(rs.order) > relayInfoCap {
		delete(rs.infos, rs.order[0])
		rs.order = rs.order[1:]
	}
}

// reserve claims hash for one reconstruction attempt; false when one
// is already in flight (a second announcer is simply ignored — if the
// first attempt falls over, its fallback covers delivery).
func (rs *relayState) reserve(h hashx.Hash) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.pending[h]; ok {
		return false
	}
	rs.pending[h] = nil
	return true
}

// commit attaches the reconstruction state to a reserved hash.
func (rs *relayState) commit(h hashx.Hash, p *pendingRecon) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.pending[h] = p
}

// release drops a reservation or pending entry without touching its
// timer (used on same-call-stack exits before any timer exists).
func (rs *relayState) release(h hashx.Hash) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	delete(rs.pending, h)
}

// take removes and returns the pending entry for hash, stopping its
// timer. from restricts the take to a specific peer's entry (a
// blocktxn only settles a request we made to that peer); nil takes
// unconditionally (the timeout path).
func (rs *relayState) take(h hashx.Hash, from *peer) *pendingRecon {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	p := rs.pending[h]
	if p == nil || (from != nil && p.peer != from) {
		return nil
	}
	delete(rs.pending, h)
	if p.timer != nil {
		p.timer.Stop()
	}
	return p
}

// handleCmpctBlock processes a compact announcement from p.
func (n *Node) handleCmpctBlock(p *peer, m *wire.Message) error {
	n.relay.stats.CompactReceived.Add(1)
	c, err := relay.DecodeCompact(m.Payload)
	if err != nil {
		// A frame that does not parse is a protocol offence, exactly
		// like a malformed inv.
		return fmt.Errorf("malformed cmpctblock: %w", err)
	}
	hash := c.Header.Hash()
	height := c.Header.Height

	// Duplicate and ordering triage, mirroring the inv handler.
	if n.cfg.Forks != nil {
		if n.cfg.Forks.Knows(hash) {
			return nil
		}
	} else {
		next := tipField(n.chain.TipHeight())
		if height < next {
			return nil // already have it
		}
		if height > next {
			// A gap: compact reconstruction cannot connect it anyway,
			// so pull the missing run of blocks first.
			n.requestFrom(p, next)
			return nil
		}
	}

	// No mempool to reconstruct from, or the peer's announcements have
	// kept failing: go straight to the full-block path.
	if n.cfg.Relay == nil || p.strikes.Load() >= maxRelayStrikes {
		n.fullFallback(p, hash)
		return nil
	}

	if !n.relay.reserve(hash) {
		return nil // another peer's announcement is already in flight
	}
	rec := relay.NewReconstructor(c, p.peerNonce, n.cfg.Relay)
	if rec.Complete() {
		n.relay.release(hash)
		return n.finishReconstruction(p, rec)
	}
	missing := rec.Missing()
	pend := &pendingRecon{rec: rec, peer: p, missing: missing}
	pend.timer = time.AfterFunc(n.cfg.RelayTimeout, func() { n.relayTimeout(hash) })
	n.relay.commit(hash, pend)
	n.relay.stats.TxnsRequested.Add(int64(len(missing)))
	return p.Send(&wire.Message{Kind: wire.GetBlockTxn, Hash: hash,
		Payload: relay.EncodeIndexes(nil, missing)})
}

// handleGetBlockTxn serves missing transactions for a block we
// recently announced. An empty transaction run answers "unavailable"
// (cache rotated, or indexes out of range); the requester falls back
// to a full fetch.
func (n *Node) handleGetBlockTxn(p *peer, m *wire.Message) error {
	var txs [][]byte
	if info := n.relay.lookup(m.Hash); info != nil {
		idx, err := relay.DecodeIndexes(m.Payload)
		if err != nil {
			return fmt.Errorf("malformed getblocktxn: %w", err)
		}
		txs = make([][]byte, 0, len(idx))
		for _, i := range idx {
			b, err := info.TxBytes(i)
			if err != nil {
				txs = nil // out of range for this block: unavailable
				break
			}
			txs = append(txs, b)
		}
	}
	return p.Send(&wire.Message{Kind: wire.BlockTxn, Hash: m.Hash, Payload: relay.EncodeTxns(nil, txs)})
}

// handleBlockTxn settles a pending reconstruction with the peer's
// answer.
func (n *Node) handleBlockTxn(p *peer, m *wire.Message) error {
	pend := n.relay.take(m.Hash, p)
	if pend == nil {
		return nil // late (already timed out), unsolicited, or not ours: ignore
	}
	txs, err := relay.DecodeTxns(m.Payload)
	if err != nil || len(txs) == 0 || len(txs) != len(pend.missing) {
		// Unavailable or unusable answer. An empty run is the honest
		// "cache rotated" reply and costs no strike; anything else
		// malformed is scored like a wrong transaction.
		if err != nil || len(txs) != 0 {
			p.strikes.Add(1)
			n.logf("peer %s: unusable blocktxn for %s (err=%v, %d txs for %d slots)",
				p.id, m.Hash.Short(), err, len(txs), len(pend.missing))
		}
		n.fullFallback(p, m.Hash)
		return nil
	}
	for i, idx := range pend.missing {
		if err := pend.rec.Fill(idx, txs[i]); err != nil {
			p.strikes.Add(1)
			n.logf("peer %s: blocktxn fill for %s: %v", p.id, m.Hash.Short(), err)
			n.fullFallback(p, m.Hash)
			return nil
		}
	}
	return n.finishReconstruction(p, pend.rec)
}

// finishReconstruction assembles, digest-checks, and accepts a
// completed reconstruction. A mismatch means the reassembly — not the
// block — is wrong (crafted collision, wrong transaction, stale pool
// view): the peer is scored and the block re-fetched whole. Bytes that
// pass are byte-identical to the original encoding, so the acceptance
// path and its verdicts are exactly those of full-block relay.
func (n *Node) finishReconstruction(p *peer, rec *relay.Reconstructor) error {
	raw, err := rec.Assemble()
	if err != nil {
		p.strikes.Add(1)
		n.logf("peer %s: %v", p.id, err)
		n.fullFallback(p, rec.Hash())
		return nil
	}
	n.relay.stats.Reconstructed.Add(1)
	return n.acceptGossipBlock(p, rec.Height(), raw)
}

// relayTimeout abandons a reconstruction whose getblocktxn went
// unanswered. No strike: silence is indistinguishable from loss.
func (n *Node) relayTimeout(hash hashx.Hash) {
	pend := n.relay.take(hash, nil)
	if pend == nil {
		return // settled in the meantime
	}
	n.logf("peer %s: blocktxn for %s timed out", pend.peer.id, hash.Short())
	n.fullFallback(pend.peer, hash)
}

// fullFallback re-fetches a block through the pre-relay machinery:
// getdata by hash between fork-choice peers, a height pull otherwise.
// The peer keeps its connection — degraded relay must never partition
// the network.
func (n *Node) fullFallback(p *peer, hash hashx.Hash) {
	n.relay.stats.Fallbacks.Add(1)
	if n.cfg.Forks != nil && p.hasFeature(wire.FeatureForkChoice) {
		_ = p.Send(&wire.Message{Kind: wire.GetData, Hashes: []hashx.Hash{hash}})
		return
	}
	n.requestFrom(p, tipField(n.chain.TipHeight()))
}
