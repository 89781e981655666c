package p2p

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/light"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
)

// Light-serve path: the full-node side of the light-client tier
// (kinds 17–20), designed for fan-out to thousands of subscribers.
//
// Three properties keep the cost per block independent of the
// subscriber count where it matters:
//
//   - Matching is inverted: instead of testing every subscriber's
//     filter against the block (O(subscribers × filter)), the registry
//     keeps global pattern→subscribers and outpoint→subscribers maps,
//     and the block is scanned ONCE — each pushed script element and
//     each spent outpoint is a hash lookup, so the scan costs
//     O(block elements + actual matches).
//   - Per-subscriber outbound queues are bounded and drained by a
//     dedicated goroutine; a slow subscriber overflows its own queue
//     and loses notifications — never the connection, and never other
//     subscribers' throughput. The next delivered subupdate carries a
//     drop flag so the client knows to poll (degrade-to-poll, not
//     disconnect).
//   - Filter size is bounded at decode time (light.DecodeFilter), so a
//     subscriber cannot pin unbounded registry memory.

// subQueueLen bounds one subscriber's undelivered notifications.
const subQueueLen = 64

// lightNotify is one queued push notification.
type lightNotify struct {
	height  uint64
	hash    hashx.Hash
	matched uint64
}

// lightSub is one peer's live subscription.
type lightSub struct {
	p      *peer
	filter *light.Filter
	queue  chan lightNotify
	done   chan struct{}
	// dropped is set when a notification for this subscriber is
	// discarded on queue overflow; the drain goroutine consumes it into
	// the next delivered subupdate's flag bit.
	dropped atomic.Bool
}

// lightState is the per-node subscription registry.
type lightState struct {
	mu         sync.Mutex
	subs       map[*peer]*lightSub
	byPattern  map[string]map[*lightSub]struct{}
	byOutpoint map[light.Outpoint]map[*lightSub]struct{}

	stats struct {
		Subscribes   atomic.Int64 // subscribe messages accepted
		Notifies     atomic.Int64 // subupdates enqueued
		Dropped      atomic.Int64 // notifications discarded on overflow
		BlocksServed atomic.Int64 // getlightblock answered with a body
		MatchNanos   atomic.Int64 // time spent in per-block filter matching
	}
}

func (ls *lightState) init() {
	ls.subs = make(map[*peer]*lightSub)
	ls.byPattern = make(map[string]map[*lightSub]struct{})
	ls.byOutpoint = make(map[light.Outpoint]map[*lightSub]struct{})
}

// LightStats is a snapshot of the serve-side light-tier counters.
type LightStats struct {
	Subscribers  int   // live subscriptions
	Subscribes   int64 // subscribe messages accepted since start
	Notifies     int64 // push notifications delivered to queues
	Dropped      int64 // notifications discarded (slow subscribers)
	BlocksServed int64 // light blocks served by hash
	MatchNanos   int64 // cumulative per-block matching time
}

// LightStats returns a snapshot of the light-serve counters.
func (n *Node) LightStats() LightStats {
	n.light.mu.Lock()
	subs := len(n.light.subs)
	n.light.mu.Unlock()
	return LightStats{
		Subscribers:  subs,
		Subscribes:   n.light.stats.Subscribes.Load(),
		Notifies:     n.light.stats.Notifies.Load(),
		Dropped:      n.light.stats.Dropped.Load(),
		BlocksServed: n.light.stats.BlocksServed.Load(),
		MatchNanos:   n.light.stats.MatchNanos.Load(),
	}
}

// handleSubscribe registers (or replaces) p's filter subscription. A
// malformed or over-limit filter is a protocol offence — the bounds
// are part of the wire contract — and costs the connection.
func (n *Node) handleSubscribe(p *peer, m *wire.Message) error {
	if !n.lightServing() {
		n.logf("peer %s: subscribe ignored (light serve disabled)", p.id)
		return nil
	}
	f, err := light.DecodeFilter(m.Payload)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	s := &lightSub{
		p:      p,
		filter: f,
		queue:  make(chan lightNotify, subQueueLen),
		done:   make(chan struct{}),
	}
	n.light.mu.Lock()
	if old := n.light.subs[p]; old != nil {
		n.removeSubLocked(old)
	}
	n.light.subs[p] = s
	for _, pat := range f.Patterns {
		set := n.light.byPattern[string(pat)]
		if set == nil {
			set = make(map[*lightSub]struct{})
			n.light.byPattern[string(pat)] = set
		}
		set[s] = struct{}{}
	}
	for _, op := range f.Outpoints {
		set := n.light.byOutpoint[op]
		if set == nil {
			set = make(map[*lightSub]struct{})
			n.light.byOutpoint[op] = set
		}
		set[s] = struct{}{}
	}
	n.light.mu.Unlock()
	n.light.stats.Subscribes.Add(1)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.lightDrain(s)
	}()
	return nil
}

// removeSubLocked unindexes a subscription and stops its drain
// goroutine. Caller holds n.light.mu.
func (n *Node) removeSubLocked(s *lightSub) {
	for _, pat := range s.filter.Patterns {
		if set := n.light.byPattern[string(pat)]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(n.light.byPattern, string(pat))
			}
		}
	}
	for _, op := range s.filter.Outpoints {
		if set := n.light.byOutpoint[op]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(n.light.byOutpoint, op)
			}
		}
	}
	delete(n.light.subs, s.p)
	close(s.done)
}

// lightDropPeer removes p's subscription on disconnect.
func (n *Node) lightDropPeer(p *peer) {
	n.light.mu.Lock()
	defer n.light.mu.Unlock()
	if s := n.light.subs[p]; s != nil {
		n.removeSubLocked(s)
	}
}

// lightDrain delivers one subscriber's queued notifications in order,
// folding any accumulated drop signal into the flag byte of the next
// delivery. Each subupdate waits for the peer's out-queue to drain
// first, so undelivered notifications stay in s.queue, where overflow
// sets the drop flag, rather than piling up in the peer queue. A send
// failure ends the drain; the peer is closed, the read side tears the
// connection down and lightDropPeer unindexes the subscription.
func (n *Node) lightDrain(s *lightSub) {
	for {
		select {
		case nt := <-s.queue:
			var flags byte
			if s.dropped.Swap(false) {
				flags |= 1
			}
			err := s.p.SendPaced(&wire.Message{
				Kind: wire.SubUpdate, Height: nt.height, Hash: nt.hash,
				Count: nt.matched, Code: flags,
			}, 0)
			if err != nil {
				return
			}
		case <-s.done:
			return
		}
	}
}

// lightServing reports whether this node serves the light tier.
// Serving needs the fork-choice engine: getlightblock answers come
// from its hash-addressed block index.
func (n *Node) lightServing() bool {
	return n.cfg.LightServe && n.cfg.Forks != nil
}

// lightWatched reports whether any light subscriber would read a
// block match.
func (n *Node) lightWatched() bool {
	if !n.lightServing() {
		return false
	}
	n.light.mu.Lock()
	defer n.light.mu.Unlock()
	return len(n.light.subs) > 0
}

// notifyLight matches an accepted block against all subscriptions and
// enqueues one subupdate per matched subscriber. The block is scanned
// exactly once regardless of subscriber count; each pushed script
// element and spent outpoint is a registry lookup. b may borrow a
// scratch: only its height, hash and match counts are queued. The
// match time counted runs from start, which the caller takes before
// decoding.
func (n *Node) notifyLight(b *blockmodel.EBVBlock, hash hashx.Hash, start time.Time) {
	matched := make(map[*lightSub]uint64)
	var elems [][]byte
	n.light.mu.Lock()
	for _, tx := range b.Txs {
		var txSubs map[*lightSub]struct{}
		hit := func(set map[*lightSub]struct{}) {
			for s := range set {
				if txSubs == nil {
					txSubs = make(map[*lightSub]struct{}, 1)
				}
				txSubs[s] = struct{}{}
			}
		}
		for i := range tx.Tidy.Outputs {
			elems = script.PushedData(elems[:0], tx.Tidy.Outputs[i].LockScript)
			for _, e := range elems {
				hit(n.light.byPattern[string(e)])
			}
		}
		for i := range tx.Bodies {
			body := &tx.Bodies[i]
			hit(n.light.byOutpoint[light.Outpoint{Height: body.Height, Pos: body.AbsPosition()}])
		}
		for s := range txSubs {
			matched[s]++
		}
	}
	n.light.mu.Unlock()
	n.light.stats.MatchNanos.Add(int64(time.Since(start)))
	for s, count := range matched {
		select {
		case s.queue <- lightNotify{height: b.Header.Height, hash: hash, matched: count}:
			n.light.stats.Notifies.Add(1)
		default:
			// Backpressure: the subscriber is not draining. Drop the
			// notification and flag the gap — never block block
			// processing, never disconnect.
			s.dropped.Store(true)
			n.light.stats.Dropped.Add(1)
		}
	}
}

// handleGetLightBlock serves a block by hash to a light client. An
// empty payload means "unavailable" — evicted, pruned, or never had it
// — and the client re-resolves via headers instead of timing out.
func (n *Node) handleGetLightBlock(p *peer, m *wire.Message) error {
	var (
		payload []byte
		height  uint64
	)
	if n.lightServing() {
		if raw, h, ok := n.cfg.Forks.BlockByHash(m.Hash); ok {
			payload, height = raw, h
			n.light.stats.BlocksServed.Add(1)
		}
	}
	return p.Send(&wire.Message{Kind: wire.LightBlock, Hash: m.Hash, Height: height, Payload: payload})
}
