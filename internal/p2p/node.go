package p2p

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"ebv/internal/admission"
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/forkchoice"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/p2p/wire"
	"ebv/internal/relay"
)

// Chain is the ledger a gossip node serves and extends. Both node
// types satisfy it through thin adapters (see adapters.go).
type Chain interface {
	// TipHeight returns the current tip; ok is false for an empty
	// chain.
	TipHeight() (uint64, bool)
	// TipHash returns the current tip's block hash (zero for empty).
	TipHash() hashx.Hash
	// BlockBytes returns the serialized block at a height.
	BlockBytes(height uint64) ([]byte, error)
	// SubmitRaw decodes, fully validates, and stores the next block.
	// It must reject anything that does not extend the current tip.
	SubmitRaw(raw []byte) error
}

// Config configures a gossip node.
type Config struct {
	// ListenAddr is the TCP address to accept peers on ("127.0.0.1:0"
	// picks a free port).
	ListenAddr string
	// MaxPeers bounds accepted connections. Default 16.
	MaxPeers int
	// OnBlock, if set, is called after a block is accepted, with the
	// height of the tip it announces and the peer the block came from
	// (empty for local submissions).
	// The propagation experiments hang their arrival clocks here.
	OnBlock func(height uint64, from string)
	// Logf, if set, receives debug lines.
	Logf func(format string, args ...any)
	// ReadTimeout bounds the wait for each inbound message after the
	// handshake; a peer silent for longer is dropped instead of
	// pinning its handler goroutine forever. Default 2 minutes.
	ReadTimeout time.Duration
	// WriteTimeout bounds one drain of a peer's out-queue: every frame
	// queued when the drain began is written and flushed under a single
	// deadline, and a peer whose drain stalls for longer is dropped, so
	// a peer that stops reading holds neither its queue nor any sender.
	// Default 30 seconds.
	WriteTimeout time.Duration
	// Snapshots, if set, serves state snapshots to fast-syncing peers
	// and advertises wire.FeatureStateSync in the handshake.
	Snapshots SnapshotProvider
	// Forks, if set, routes inbound blocks through the fork-choice
	// engine — competing branches park or reorg instead of dropping
	// the peer — serves getheaders/getdata, and advertises
	// wire.FeatureForkChoice plus cumulative tip work in the handshake.
	Forks *forkchoice.Engine
	// TxSubmit, if set, accepts transaction submissions (kind 12) from
	// peers, runs them through the admission service, answers each with
	// a txack verdict (kind 13) echoing the request id, and advertises
	// wire.FeatureTxSubmit.
	TxSubmit *admission.Service
	// Relay, if set, enables compact block relay (kinds 14–16) and
	// advertises wire.FeatureCompactRelay plus a per-connection salt
	// nonce in the hello: new blocks are pushed to compact-capable
	// peers as short-id announcements, and inbound announcements are
	// reconstructed from this transaction source (the node's mempool).
	// Every failure mode — short-id collision, missing-transaction
	// timeout, reconstruction mismatch — degrades to the existing
	// full-block fetch without dropping the peer.
	Relay relay.TxSource
	// RelayTimeout bounds the wait for a blocktxn answer before a
	// pending compact reconstruction falls back to the full-block
	// path. Default 5 seconds.
	RelayTimeout time.Duration
	// LightServe, if set (and Forks is set — light blocks are served
	// from the fork-choice engine's hash index), serves the
	// light-client tier (kinds 17–20) and advertises
	// wire.FeatureLightServe: filter subscriptions, per-block push
	// notifications to matching subscribers, and selected-block
	// downloads by hash. See lightserve.go for the fan-out design.
	LightServe bool
}

// maxHeadersServed caps one headers response (2000 × 96 bytes stays
// far below wire.MaxPayload); the requester comes back with a fresh
// locator if it still trails.
const maxHeadersServed = 2000

// Node gossips blocks with its peers.
type Node struct {
	chain Chain
	cfg   Config

	ln net.Listener

	mu      sync.Mutex
	peers   map[string]*peer
	peerSeq int
	closing bool
	syncing bool

	traffic wire.Counters

	relay relayState
	light lightState

	// queueBudget is each peer's out-queue byte budget (see wire.Conn).
	queueBudget int

	wg sync.WaitGroup
}

// NewNode creates a gossip node over chain.
func NewNode(chain Chain, cfg Config) *Node {
	if cfg.MaxPeers <= 0 {
		cfg.MaxPeers = 16
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.RelayTimeout <= 0 {
		cfg.RelayTimeout = 5 * time.Second
	}
	n := &Node{chain: chain, cfg: cfg, peers: make(map[string]*peer), queueBudget: wire.DefaultBudget}
	n.relay.init()
	n.light.init()
	return n
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// features returns the feature bits this node advertises in hellos.
func (n *Node) features() byte {
	var f byte
	if n.cfg.Snapshots != nil {
		f |= wire.FeatureStateSync
	}
	if n.cfg.Forks != nil {
		f |= wire.FeatureForkChoice
	}
	if n.cfg.TxSubmit != nil {
		f |= wire.FeatureTxSubmit
	}
	if n.cfg.Relay != nil {
		f |= wire.FeatureCompactRelay
	}
	if n.lightServing() {
		f |= wire.FeatureLightServe
	}
	return f
}

// BytesRead returns the total bytes received over all peer
// connections since the node was created.
func (n *Node) BytesRead() int64 { return n.traffic.BytesIn.Load() }

// BytesWritten returns the total bytes sent over all peer connections
// since the node was created.
func (n *Node) BytesWritten() int64 { return n.traffic.BytesOut.Load() }

// Start begins accepting peers. It returns the bound address.
func (n *Node) Start() (string, error) {
	addr := n.cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("p2p: %w", err)
	}
	n.ln = ln
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.handleConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Addr returns the listening address ("" before Start).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Connect dials a peer, performs the handshake, and starts gossiping
// with it.
func (n *Node) Connect(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("p2p: %w", err)
	}
	n.ServeConn(conn)
	return nil
}

// ServeConn runs the peer protocol over an already-established
// connection (either direction), counting it against MaxPeers. Tests
// and benchmarks attach in-memory net.Pipe peers this way — a
// thousand subscribers without a thousand sockets.
func (n *Node) ServeConn(conn net.Conn) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.handleConn(conn)
	}()
}

// PeerCount returns the number of live peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// Close stops the listener and disconnects all peers.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closing = true
	if n.ln != nil {
		n.ln.Close()
	}
	for _, p := range n.peers {
		p.Close(nil)
	}
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// handleConn runs the lifetime of one connection (either direction).
func (n *Node) handleConn(conn net.Conn) {
	p := &peer{id: conn.RemoteAddr().String(), nonce: newNonce()}
	p.Conn = wire.NewConn(conn, wire.ConnConfig{
		WriteTimeout: n.cfg.WriteTimeout,
		Budget:       n.queueBudget,
		Counters:     &n.traffic,
		Logf: func(format string, args ...any) {
			n.logf("peer %s: "+format, append([]any{p.id}, args...)...)
		},
	})
	// Node.Close waits for this: the writer is gone once the peer is.
	defer func() {
		p.Close(nil)
		p.Wait()
	}()

	n.mu.Lock()
	if n.closing || len(n.peers) >= n.cfg.MaxPeers {
		n.mu.Unlock()
		return
	}
	if _, taken := n.peers[p.id]; taken {
		// Pipe-backed connections all report the same remote address;
		// give each registration a unique id.
		n.peerSeq++
		p.id = fmt.Sprintf("%s#%d", p.id, n.peerSeq)
	}
	n.peers[p.id] = p
	n.mu.Unlock()
	defer func() {
		n.lightDropPeer(p)
		n.mu.Lock()
		delete(n.peers, p.id)
		n.mu.Unlock()
	}()

	// Handshake: exchange tips, feature bits, (between fork-choice
	// peers) cumulative tip work, and (between compact-relay peers) the
	// short-id salt nonces. The tip is read after registration, so a
	// block accepted meanwhile is either in it or announced to p; such
	// an announcement may already be queued, but the hello goes to the
	// head of the queue and is the first frame on the wire.
	tip, ok := n.chain.TipHeight()
	hello := &wire.Message{Kind: wire.Hello, Height: tipField(tip, ok), Features: n.features(), Nonce: p.nonce}
	if n.cfg.Forks != nil {
		hello.TipWork = n.cfg.Forks.TipWork()
	}
	first, err := p.Handshake(hello, 10*time.Second)
	if err != nil {
		return
	}
	p.features.Store(uint32(first.Features))
	p.peerNonce = first.Nonce
	n.logf("peer %s connected (tip %d, ours %d, features %08b)", p.id, first.Height, hello.Height, first.Features)
	if n.cfg.Forks != nil && first.Features&wire.FeatureForkChoice != 0 {
		// Work, not height, decides who syncs: a peer on a heavier
		// branch may even be shorter.
		theirs := new(big.Int).SetBytes(first.TipWork)
		ours := new(big.Int).SetBytes(hello.TipWork)
		if theirs.Cmp(ours) > 0 {
			n.sendGetHeaders(p)
		}
	} else if first.Height > hello.Height {
		n.requestFrom(p, hello.Height) // hello.Height == next needed height encoding
	}

	// Per-message read deadline: a peer that goes silent for longer
	// than ReadTimeout is dropped rather than pinning this goroutine
	// (and a peer slot) forever.
	for {
		m, err := p.Read(time.Now().Add(n.cfg.ReadTimeout))
		if err != nil {
			n.logf("peer %s: read: %v", p.id, err)
			return
		}
		if err := n.handleMessage(p, m); err != nil {
			n.logf("peer %s: %v", p.id, err)
			return
		}
	}
}

// tipField encodes "next height I need": 0 for an empty chain, else
// tip+1. Using next-height avoids an ambiguous 0.
func tipField(tip uint64, ok bool) uint64 {
	if !ok {
		return 0
	}
	return tip + 1
}

// requestFrom asks p for the next batch of blocks starting at from.
func (n *Node) requestFrom(p *peer, from uint64) {
	_ = p.Send(&wire.Message{Kind: wire.GetBlocks, Height: from, Count: wire.MaxBatch})
}

// sendGetHeaders asks p for headers above our chain, identified by a
// block locator, so a competing branch can be discovered and fetched.
func (n *Node) sendGetHeaders(p *peer) {
	if n.cfg.Forks == nil {
		return
	}
	loc := n.cfg.Forks.Locator()
	if len(loc) == 0 {
		// Empty chain: a locator of just the zero hash matches nothing,
		// so the peer serves from its genesis.
		loc = []hashx.Hash{hashx.ZeroHash}
	}
	if len(loc) > wire.MaxLocator {
		loc = loc[:wire.MaxLocator]
	}
	_ = p.Send(&wire.Message{Kind: wire.GetHeaders, Hashes: loc})
}

// handleMessage processes one inbound message.
func (n *Node) handleMessage(p *peer, m *wire.Message) error {
	switch m.Kind {
	case wire.Inv:
		next := tipField(n.chain.TipHeight())
		if n.cfg.Forks != nil {
			switch {
			case n.cfg.Forks.Knows(m.Hash):
				// Already have it (any branch).
			case m.Height == next:
				// Plausible tip extension: pull by height.
				n.requestFrom(p, next)
			case p.hasFeature(wire.FeatureForkChoice):
				// Behind, or a competing branch: resolve via headers.
				n.sendGetHeaders(p)
			default:
				n.requestFrom(p, next)
			}
			return nil
		}
		switch {
		case m.Height < next:
			// Already have it.
		default:
			n.requestFrom(p, next)
		}
		return nil

	case wire.GetBlocks:
		next := tipField(n.chain.TipHeight())
		for h := m.Height; h < m.Height+m.Count && h < next; h++ {
			raw, err := n.chain.BlockBytes(h)
			if err != nil {
				// A fast-synced node holds header-only history below its
				// snapshot tip: asking for those bodies is a normal IBD
				// request, not an offence. End the batch and keep the
				// connection, so the requester fails over to peers that
				// hold the bodies while gossip of new blocks continues.
				if errors.Is(err, chainstore.ErrNoBody) {
					n.logf("peer %s: no body for block %d (fast-synced history), ending batch", p.id, h)
					return nil
				}
				return fmt.Errorf("serving block %d: %w", h, err)
			}
			// Paced, not queued outright: this loop runs on the requester's
			// own reader goroutine, so waiting for its queue to drain holds
			// back only that peer, and half the budget stays free for
			// announcements and acks.
			if err := p.SendPaced(&wire.Message{Kind: wire.Block, Height: h, Payload: raw}, n.queueBudget/2); err != nil {
				return err
			}
		}
		return nil

	case wire.Block:
		return n.acceptGossipBlock(p, m.Height, m.Payload)

	case wire.CmpctBlock:
		return n.handleCmpctBlock(p, m)

	case wire.GetBlockTxn:
		return n.handleGetBlockTxn(p, m)

	case wire.BlockTxn:
		return n.handleBlockTxn(p, m)

	case wire.GetHeaders:
		// Serve headers above the highest locator hash we share. A node
		// without a fork-choice engine answers empty (it has no locator
		// machinery); the requester just moves on.
		var payload []byte
		if n.cfg.Forks != nil {
			start := uint64(0)
			if fork, ok := n.cfg.Forks.LocatorFork(m.Hashes); ok {
				start = fork + 1
			}
			if tip, ok := n.cfg.Forks.TipHeight(); ok {
				for h := start; h <= tip && len(payload) < maxHeadersServed*blockmodel.HeaderSize; h++ {
					hdr, ok := n.cfg.Forks.HeaderAt(h)
					if !ok {
						break
					}
					payload = hdr.Encode(payload)
				}
			}
		}
		return p.Send(&wire.Message{Kind: wire.Headers, Payload: payload})

	case wire.Headers:
		if n.cfg.Forks == nil || len(m.Payload) == 0 {
			return nil
		}
		if len(m.Payload)%blockmodel.HeaderSize != 0 {
			return fmt.Errorf("headers payload of %d bytes is not a header multiple", len(m.Payload))
		}
		// Fetch the bodies we lack, in height order, one batch at a
		// time; once they connect (or reorg), the pull continues by
		// height or a fresh getheaders round.
		var want []hashx.Hash
		for off := 0; off < len(m.Payload) && len(want) < wire.MaxBatch; off += blockmodel.HeaderSize {
			hdr, err := blockmodel.DecodeHeader(m.Payload[off : off+blockmodel.HeaderSize])
			if err != nil {
				return err
			}
			if h := hdr.Hash(); !n.cfg.Forks.Knows(h) {
				want = append(want, h)
			}
		}
		if len(want) == 0 {
			return nil
		}
		return p.Send(&wire.Message{Kind: wire.GetData, Hashes: want})

	case wire.GetData:
		if n.cfg.Forks == nil {
			return nil
		}
		for _, h := range m.Hashes {
			raw, height, ok := n.cfg.Forks.BlockByHash(h)
			if !ok {
				continue // evicted or never had it; peer re-resolves via headers
			}
			// Paced like the getblocks loop above.
			if err := p.SendPaced(&wire.Message{Kind: wire.Block, Height: height, Payload: raw}, n.queueBudget/2); err != nil {
				return err
			}
		}
		return nil

	case wire.GetManifest:
		// An empty manifest payload means "no snapshot here"; clients
		// move on to the next peer instead of timing out.
		var mb []byte
		if n.cfg.Snapshots != nil {
			if b, ok := n.cfg.Snapshots.ManifestBytes(); ok {
				mb = b
			}
		}
		return p.Send(&wire.Message{Kind: wire.Manifest, Payload: mb})

	case wire.GetChunk:
		// Likewise an empty chunk payload means "unavailable" (a valid
		// chunk always covers at least one height, so it is never
		// empty). A provider error is the server's problem, not the
		// requesting peer's: log it and answer unavailable.
		var cb []byte
		if n.cfg.Snapshots != nil {
			b, err := n.cfg.Snapshots.ChunkBytes(m.Height)
			if err != nil {
				n.logf("peer %s: serving chunk %d: %v", p.id, m.Height, err)
			} else {
				cb = b
			}
		}
		return p.Send(&wire.Message{Kind: wire.Chunk, Height: m.Height, Payload: cb})

	case wire.Tx:
		// Transaction submission. The intake stage runs here on the
		// reader goroutine — parallel across connections, sharing the
		// pool's read lock — and the verdict callback fires either synchronously (intake
		// rejection) or from the admission collector after the batch
		// commits. Either way p.send only appends the ack to the peer's
		// out-queue: the collector never waits on a socket, the peer's
		// writer coalesces a batch's acks into one flush, and a
		// submitter that stops reading overflows its own queue and is
		// dropped.
		reqid := m.Height
		if n.cfg.TxSubmit == nil {
			// Not serving admission (the peer ignored our feature bits):
			// answer rather than leave the submitter waiting.
			return p.Send(&wire.Message{Kind: wire.TxAck, Height: reqid, Code: admission.CodeClosed})
		}
		n.cfg.TxSubmit.SubmitAsync(p.id, m.Payload, func(r admission.Result) {
			_ = p.Send(&wire.Message{Kind: wire.TxAck, Height: reqid, Code: r.Code, Hash: r.ID})
		})
		return nil

	case wire.Subscribe:
		return n.handleSubscribe(p, m)

	case wire.GetLightBlock:
		return n.handleGetLightBlock(p, m)

	case wire.Manifest, wire.Chunk, wire.TxAck, wire.SubUpdate, wire.LightBlock:
		// Responses to requests this gossip loop never makes (the
		// statesync client, the load generator, and light clients run
		// their own connections). Harmless; ignore.
		return nil

	case wire.Hello:
		return errors.New("unexpected hello")
	default:
		return fmt.Errorf("unknown message kind %d", m.Kind)
	}
}

// acceptGossipBlock runs the full-block acceptance path on a
// serialized block from p — the wire.Block case, and equally the
// landing point for bytes reassembled by compact relay (which are
// digest-checked first, so both paths carry identical bytes and yield
// identical verdicts).
func (n *Node) acceptGossipBlock(p *peer, height uint64, payload []byte) error {
	if n.cfg.Forks != nil {
		return n.handleBlockForkChoice(p, height, payload)
	}
	next := tipField(n.chain.TipHeight())
	if height < next {
		return nil // duplicate
	}
	if height > next {
		// Out of order; re-request the gap.
		n.requestFrom(p, next)
		return nil
	}
	// Validate before storing or forwarding — the property under
	// study. A validation failure is a protocol offence: drop the
	// peer.
	if err := n.chain.SubmitRaw(payload); err != nil {
		return fmt.Errorf("invalid block %d: %w", height, err)
	}
	n.accepted(payload, p)
	return nil
}

// handleBlockForkChoice routes an inbound block through the engine.
func (n *Node) handleBlockForkChoice(p *peer, height uint64, payload []byte) error {
	v, err := n.cfg.Forks.ProcessBlock(payload, p.id)
	if err != nil {
		// Policy refusals — a reorg past our depth cap, past fast-synced
		// header-only history, or through an evicted side block — are
		// our limits, not the peer's offence: log and keep the
		// connection.
		if errors.Is(err, forkchoice.ErrReorgTooDeep) ||
			errors.Is(err, forkchoice.ErrReorgPastSnapshot) ||
			errors.Is(err, forkchoice.ErrSideBlockMissing) {
			n.logf("peer %s: block %d refused: %v", p.id, height, err)
			return nil
		}
		// Anything else means the block (or its branch) is invalid:
		// drop the peer, same as the non-fork-choice path.
		return fmt.Errorf("invalid block %d: %w", height, err)
	}
	switch v {
	case forkchoice.Connected, forkchoice.Reorged:
		n.accepted(payload, p)
	case forkchoice.Orphaned:
		// Unknown parent: instead of dropping the block on the floor,
		// ask the sender for headers so the gap (or its branch) can be
		// resolved.
		n.sendGetHeaders(p)
	}
	// Duplicate and SideStored need no response.
	return nil
}

// SubmitLocal injects a locally produced block (a miner) and announces
// it to all peers.
func (n *Node) SubmitLocal(raw []byte) error {
	if err := n.chain.SubmitRaw(raw); err != nil {
		return err
	}
	n.accepted(raw, nil)
	return nil
}

// accepted is the one pass after the chain takes a block, whether from
// a peer (from) or a local miner (nil): OnBlock, the announcement, and
// a pull of what follows from a peer that may be ahead. It works from
// raw, the accepted bytes, unless the tip has moved past them
// meanwhile (orphan adoption, a concurrent accept); then it announces
// the tip block instead. Height and hash always come from one header.
func (n *Node) accepted(raw []byte, from *peer) {
	// An accepted block, like a stored one, is at least a header long.
	hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
	if err == nil && hdr.Hash() != n.chain.TipHash() {
		tip, _ := n.chain.TipHeight()
		if raw, err = n.chain.BlockBytes(tip); err == nil {
			hdr, err = blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
		}
	}
	if err != nil {
		n.logf("announce: %v", err)
		return
	}
	var fromID string
	if from != nil {
		fromID = from.id
	}
	if n.cfg.OnBlock != nil {
		n.cfg.OnBlock(hdr.Height, fromID)
	}
	n.announce(raw, hdr, fromID)
	if from != nil {
		n.requestFrom(from, hdr.Height+1)
	}
}

// announce advertises an accepted block to every peer except the
// source: a compact short-id announcement pushed directly to
// compact-relay peers (saving the inv/getblocks round trip on top of
// the bytes), a plain inv to everyone else. Featureless peers see the
// legacy protocol verbatim. The block is decoded only when something
// reads the decode — a compact-capable target needs the relay index, a
// light subscriber the filter match — and then once for both.
func (n *Node) announce(raw []byte, hdr blockmodel.Header, except string) {
	hash := hdr.Hash()
	var compact bool
	n.mu.Lock()
	targets := make([]*peer, 0, len(n.peers))
	for id, p := range n.peers {
		if id != except {
			targets = append(targets, p)
			compact = compact || (n.cfg.Relay != nil && p.hasFeature(wire.FeatureCompactRelay))
		}
	}
	n.mu.Unlock()
	// Light tier first: its pushes are queued before the fan-out below,
	// which still reaches light clients as their header-sync tick.
	var info *relay.BlockInfo
	if watched := n.lightWatched(); compact || watched {
		info = n.decodeAccepted(raw, hash, watched, compact)
	}
	for _, p := range targets {
		if info != nil && p.hasFeature(wire.FeatureCompactRelay) {
			c := info.Compact(p.nonce)
			_ = p.Send(&wire.Message{Kind: wire.CmpctBlock, Height: hdr.Height, Payload: c.Encode(nil)})
			n.relay.stats.CompactSent.Add(1)
			continue
		}
		_ = p.Send(&wire.Message{Kind: wire.Inv, Height: hdr.Height, Hash: hash})
	}
}

// decodeAccepted decodes an accepted block once, borrowing raw into a
// pooled ingest scratch, and feeds that decode to the light match
// (when match is set) and to a new, cached relay index (when index is
// set). Neither keeps anything of the scratch — the light queues hold
// counts, the index copies raw — so the scratch goes back to the pool
// before this returns.
func (n *Node) decodeAccepted(raw []byte, hash hashx.Hash, match, index bool) *relay.BlockInfo {
	start := time.Now()
	s := ingest.Get()
	defer s.Release()
	blk, err := s.DecodeEBVBlock(raw)
	if err != nil {
		n.logf("decoding block %s to announce: %v", hash.Short(), err)
		return nil
	}
	if match {
		n.notifyLight(blk, hash, start)
	}
	if !index {
		return nil
	}
	info := relay.NewBlockInfo(raw, blk)
	n.relay.cache(info)
	return info
}
