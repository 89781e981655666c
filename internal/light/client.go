package light

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
	"ebv/internal/sig"
)

// Config configures a light client.
type Config struct {
	// Filter is the interest set to subscribe with. Nil means headers
	// only: the client tracks the tip but receives no pushes.
	Filter *Filter
	// Scheme is the signature scheme for script validation. Default
	// sig.SimSig{}.
	Scheme sig.Scheme
	// OnBlock, if set, is called after a pushed block verifies, with
	// the decoded block. Runs on the client's read goroutine.
	OnBlock func(height uint64, hash hashx.Hash, b *blockmodel.EBVBlock)
	// Logf, if set, receives debug lines.
	Logf func(format string, args ...any)
	// ReadTimeout bounds the wait for each inbound message. Default 2
	// minutes.
	ReadTimeout time.Duration
	// WriteTimeout bounds each drain of the outbound queue; a server
	// that stops reading for longer ends the client. Default 30 seconds.
	WriteTimeout time.Duration
}

// Stats is a snapshot of the client's counters. FullBlockDownloads
// stays zero by construction — the client has no code path that sends
// getblocks — and exists precisely so harnesses can assert that.
type Stats struct {
	TipHeight          uint64 // header-chain tip (0 when empty; see TipOK)
	TipOK              bool
	HeadersConnected   uint64
	SubUpdates         uint64 // push notifications received
	DroppedSignals     uint64 // subupdates carrying the server's drop flag
	BlocksRequested    uint64 // getlightblock sent
	BlocksVerified     uint64 // pushed blocks fully verified (EV+SV, no statusdb)
	VerifyFailures     uint64
	Unavailable        uint64 // empty lightblock answers
	FullBlockDownloads uint64 // always 0: light clients never fetch by height
	VerifyNanos        int64  // time inside VerifyBlock
	PushToVerifyNanos  int64  // subupdate arrival -> block verified
}

// Client is a light node attached to one full node: it syncs headers,
// subscribes its filter, and verifies the pushed blocks that match —
// never downloading a block it did not ask for by hash.
type Client struct {
	cfg Config
	hc  *HeaderChain
	eng *script.Engine
	// conn is the wire session. The read loop only queues requests on
	// it: if both ends' read loops blocked in a write at once (easy over
	// an unbuffered net.Pipe, possible over a full TCP buffer), neither
	// side would read and the connection would deadlock.
	conn *wire.Conn

	serverFeatures byte

	// pending parks lightblock payloads whose headers have not arrived
	// yet; notified records each announced hash's subupdate arrival
	// time for the push-to-verify clock until the block's final outcome
	// (verified, failed, unavailable or dropped).
	pending  map[hashx.Hash][]byte
	notified map[hashx.Hash]time.Time

	headersConnected atomic.Uint64
	subUpdates       atomic.Uint64
	droppedSignals   atomic.Uint64
	blocksRequested  atomic.Uint64
	blocksVerified   atomic.Uint64
	verifyFailures   atomic.Uint64
	unavailable      atomic.Uint64
	verifyNanos      atomic.Int64
	pushVerifyNanos  atomic.Int64

	synced   chan struct{}
	syncOnce sync.Once
	done     chan struct{}
	err      error
}

// maxPendingBlocks bounds parked lightblock payloads awaiting headers,
// and likewise the subupdate arrival times awaiting their block.
const maxPendingBlocks = 64

// Dial connects to a full node and starts the client.
func Dial(addr string, cfg Config) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("light: %w", err)
	}
	c := NewClient(conn, cfg)
	if err := c.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (a TCP socket, or one end
// of a net.Pipe in tests and benchmarks) without starting it.
func NewClient(conn net.Conn, cfg Config) *Client {
	if cfg.Scheme == nil {
		cfg.Scheme = sig.SimSig{}
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	return &Client{
		cfg:      cfg,
		hc:       NewHeaderChain(),
		eng:      script.NewEngine(cfg.Scheme),
		conn:     wire.NewConn(conn, wire.ConnConfig{WriteTimeout: cfg.WriteTimeout, Logf: cfg.Logf}),
		pending:  make(map[hashx.Hash][]byte),
		notified: make(map[hashx.Hash]time.Time),
		synced:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Start performs the handshake and launches the read loop. The hello
// goes out first and the server's is read meanwhile, so neither side
// has to speak first.
func (c *Client) Start() error {
	first, err := c.conn.Handshake(&wire.Message{Kind: wire.Hello, Height: 0}, 10*time.Second)
	if err != nil {
		c.conn.Close(nil)
		return fmt.Errorf("light: handshake: %v", err)
	}
	c.serverFeatures = first.Features
	if c.cfg.Filter != nil {
		if first.Features&wire.FeatureLightServe == 0 {
			c.conn.Close(nil)
			return fmt.Errorf("light: server does not serve the light tier (features %08b)", first.Features)
		}
		if err := c.conn.Send(&wire.Message{Kind: wire.Subscribe, Payload: c.cfg.Filter.Encode(nil)}); err != nil {
			return fmt.Errorf("light: subscribe: %w", err)
		}
	}
	if err := c.sendGetHeaders(); err != nil {
		return fmt.Errorf("light: getheaders: %w", err)
	}
	go c.readLoop()
	return nil
}

// ServerFeatures returns the feature bits the server advertised.
func (c *Client) ServerFeatures() byte { return c.serverFeatures }

// Headers exposes the client's header chain.
func (c *Client) Headers() *HeaderChain { return c.hc }

// Synced is closed the first time a headers round trip brings nothing
// new — the client has caught up with the server's tip.
func (c *Client) Synced() <-chan struct{} { return c.synced }

// Done is closed when the read loop exits; Err then reports why.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the read-loop exit error (nil until Done is closed).
func (c *Client) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// Close tears the connection down and waits for the read loop.
func (c *Client) Close() {
	c.conn.Close(nil)
	<-c.done
}

// Stats returns a snapshot of the counters.
func (c *Client) Stats() Stats {
	tip, ok := c.hc.TipHeight()
	return Stats{
		TipHeight:          tip,
		TipOK:              ok,
		HeadersConnected:   c.headersConnected.Load(),
		SubUpdates:         c.subUpdates.Load(),
		DroppedSignals:     c.droppedSignals.Load(),
		BlocksRequested:    c.blocksRequested.Load(),
		BlocksVerified:     c.blocksVerified.Load(),
		VerifyFailures:     c.verifyFailures.Load(),
		Unavailable:        c.unavailable.Load(),
		FullBlockDownloads: 0,
		VerifyNanos:        c.verifyNanos.Load(),
		PushToVerifyNanos:  c.pushVerifyNanos.Load(),
	}
}

func (c *Client) sendGetHeaders() error {
	loc := c.hc.Locator()
	if len(loc) == 0 {
		loc = []hashx.Hash{hashx.ZeroHash}
	}
	if len(loc) > wire.MaxLocator {
		loc = loc[:wire.MaxLocator]
	}
	return c.conn.Send(&wire.Message{Kind: wire.GetHeaders, Hashes: loc})
}

func (c *Client) readLoop() {
	defer close(c.done)
	defer c.conn.Close(nil)
	for {
		m, err := c.conn.Read(time.Now().Add(c.cfg.ReadTimeout))
		if err != nil {
			c.err = err
			return
		}
		if err := c.handle(m); err != nil {
			c.err = err
			return
		}
	}
}

func (c *Client) handle(m *wire.Message) error {
	switch m.Kind {
	case wire.Headers:
		if len(m.Payload)%blockmodel.HeaderSize != 0 {
			return fmt.Errorf("light: headers payload of %d bytes is not a header multiple", len(m.Payload))
		}
		run := make([]blockmodel.Header, 0, len(m.Payload)/blockmodel.HeaderSize)
		for off := 0; off < len(m.Payload); off += blockmodel.HeaderSize {
			hdr, err := blockmodel.DecodeHeader(m.Payload[off : off+blockmodel.HeaderSize])
			if err != nil {
				return err
			}
			run = append(run, hdr)
		}
		applied, err := c.hc.Connect(run)
		c.headersConnected.Add(uint64(applied))
		if err != nil {
			return err
		}
		if applied > 0 {
			c.retryPending()
			// The server caps one response; come back for the rest (an
			// empty round marks sync).
			return c.sendGetHeaders()
		}
		c.syncOnce.Do(func() { close(c.synced) })
		return nil

	case wire.Inv:
		// New block announced. Light clients track the tip via headers
		// only; the body is fetched solely when a subupdate names it.
		if _, known := c.hc.HeightOf(m.Hash); !known {
			return c.sendGetHeaders()
		}
		return nil

	case wire.SubUpdate:
		c.subUpdates.Add(1)
		if m.Code&1 != 0 {
			// The server dropped notifications for us (backpressure):
			// fall back to polling headers; matched history beyond the
			// gap is out of scope for this client.
			c.droppedSignals.Add(1)
			if err := c.sendGetHeaders(); err != nil {
				return err
			}
		}
		if len(c.notified) < maxPendingBlocks {
			c.notified[m.Hash] = time.Now()
		}
		c.blocksRequested.Add(1)
		return c.conn.Send(&wire.Message{Kind: wire.GetLightBlock, Hash: m.Hash})

	case wire.LightBlock:
		if len(m.Payload) == 0 {
			c.unavailable.Add(1)
			delete(c.notified, m.Hash)
			return nil
		}
		if _, known := c.hc.HeightOf(m.Hash); !known {
			// Header race: the push beat our header sync. Park the bytes
			// and resolve the header first.
			if len(c.pending) < maxPendingBlocks {
				c.pending[m.Hash] = m.Payload
			} else {
				delete(c.notified, m.Hash)
			}
			return c.sendGetHeaders()
		}
		c.verifyPushed(m.Hash, m.Payload)
		return nil

	case wire.CmpctBlock, wire.Block:
		// A full node may push these to peers it mistakes for full
		// peers; a light client never requested them and cannot use
		// them. Ignore rather than disconnect.
		return nil

	case wire.Hello:
		return fmt.Errorf("light: unexpected hello")
	default:
		return nil
	}
}

// retryPending re-attempts parked blocks after new headers connected.
func (c *Client) retryPending() {
	for h, raw := range c.pending {
		if _, known := c.hc.HeightOf(h); known {
			delete(c.pending, h)
			c.verifyPushed(h, raw)
		}
	}
}

// verifyPushed runs the full light verification on a pushed block.
func (c *Client) verifyPushed(h hashx.Hash, raw []byte) {
	start := time.Now()
	b, err := VerifyBlock(c.hc, raw, c.eng)
	c.verifyNanos.Add(int64(time.Since(start)))
	t, timed := c.notified[h]
	delete(c.notified, h)
	if err != nil {
		c.verifyFailures.Add(1)
		c.logf("light: pushed block %s failed verification: %v", h.Short(), err)
		return
	}
	c.blocksVerified.Add(1)
	if timed {
		c.pushVerifyNanos.Add(int64(time.Since(t)))
	}
	if c.cfg.OnBlock != nil {
		c.cfg.OnBlock(b.Header.Height, h, b)
	}
}
