package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ebv/internal/hashx"
)

// Connection lifecycle. Every session on this protocol — a gossip peer
// on either side, a light client, a state-sync download, a load
// submitter — runs over one Conn:
//
//   - Handshake puts the local hello at the head of the out-queue,
//     starts the writer and reads the remote's hello, so the hello is
//     the first frame on the wire in both directions and either side may
//     speak first.
//   - Every later frame goes through the out-queue, a FIFO drained by
//     one writer goroutine: Send appends and returns, and the writer
//     takes everything queued, buffers each frame and flushes once,
//     under a single write deadline per drain. Senders never wait on the
//     socket, and the frames of a burst leave in one write.
//   - The queue is bounded by a byte budget. A plain Send that would
//     take a non-empty queue past it closes the connection, as does a
//     drain that cannot finish within the write timeout, so a remote
//     that stops reading costs bounded memory and delays nobody else.
//     Senders that must keep backpressure instead use SendPaced, which
//     waits for the queue to drain.
//   - Read bounds its wait by a deadline and skips frames of kinds this
//     version does not know; once the connection is closed it reports
//     why.

// DefaultBudget bounds the bytes one connection may hold queued or in
// the writer's current drain: room for several full blocks with their
// proofs (blockmodel.MaxBlockBytes is 1 MB before proofs), far above
// what a remote that is reading ever accumulates.
const DefaultBudget = 8 << 20

// defaultWriteTimeout bounds one drain when the caller sets no timeout.
const defaultWriteTimeout = 30 * time.Second

// ErrQueueOverflow closes a connection whose out-queue would exceed its
// budget.
var ErrQueueOverflow = errors.New("out-queue over budget")

// errClosed is returned by sends on a closed connection.
var errClosed = errors.New("wire: connection closed")

// QueuedBytes is what one queued message is charged against its
// connection's budget: the message value plus the variable-length
// fields it holds, which bounds both its frame size and the memory it
// pins.
func QueuedBytes(m *Message) int {
	return int(unsafe.Sizeof(*m)) + len(m.Payload) + len(m.TipWork) + len(m.Hashes)*hashx.Size
}

// Counters totals the traffic of a set of connections: every byte read
// from or written to their sockets, and the frames and frame bytes of
// each message kind (unknown kinds from newer peers under their own
// kind byte). Frame bytes include the kind byte and length varint.
type Counters struct {
	BytesIn, BytesOut                            atomic.Int64
	MsgsIn, FrameBytesIn, MsgsOut, FrameBytesOut [256]atomic.Int64
}

func (t *Counters) frame(kind byte, n int, in bool) {
	if t == nil {
		return
	}
	if in {
		t.MsgsIn[kind].Add(1)
		t.FrameBytesIn[kind].Add(int64(n))
		return
	}
	t.MsgsOut[kind].Add(1)
	t.FrameBytesOut[kind].Add(int64(n))
}

// socket counts the bytes crossing a connection at the socket.
// Deadlines and Close pass through the embedded conn.
type socket struct {
	net.Conn
	t *Counters
}

func (s socket) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if s.t != nil {
		s.t.BytesIn.Add(int64(n))
	}
	return n, err
}

func (s socket) Write(p []byte) (int, error) {
	n, err := s.Conn.Write(p)
	if s.t != nil {
		s.t.BytesOut.Add(int64(n))
	}
	return n, err
}

// ConnConfig configures a Conn.
type ConnConfig struct {
	// WriteTimeout bounds one drain of the out-queue. Default 30
	// seconds.
	WriteTimeout time.Duration
	// Budget bounds the bytes queued or in the current drain. Default
	// DefaultBudget.
	Budget int
	// Counters, if set, accumulates this connection's traffic.
	Counters *Counters
	// Logf, if set, receives the kinds of skipped frames.
	Logf func(format string, args ...any)
}

// Conn is one framed protocol session over a net.Conn.
type Conn struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer // used only by writeLoop
	cfg ConnConfig
	// writer counts the running writeLoop, so Wait can outlast it.
	writer sync.WaitGroup

	qmu sync.Mutex
	// qcond is broadcast when the queue gains its first frame, when a
	// drain completes and when the connection closes; the writer and
	// paced senders wait on it.
	qcond    sync.Cond
	queue    []Message
	queued   int // bytes charged for frames queued or in the current drain
	closed   bool
	closeErr error // why the connection was closed, nil for an ordinary teardown
}

// NewConn wraps nc. Nothing is written until Handshake.
func NewConn(nc net.Conn, cfg ConnConfig) *Conn {
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	s := socket{nc, cfg.Counters}
	c := &Conn{nc: nc, r: bufio.NewReader(s), w: bufio.NewWriter(s), cfg: cfg}
	c.qcond.L = &c.qmu
	return c
}

// Handshake opens the session: it puts hello at the head of the
// out-queue, ahead of anything already queued, starts the writer, and
// reads the remote's hello within timeout. Call it once, before Read.
func (c *Conn) Handshake(hello *Message, timeout time.Duration) (*Message, error) {
	c.qmu.Lock()
	if !c.closed {
		c.queue = slices.Insert(c.queue, 0, *hello)
		c.queued += QueuedBytes(hello)
	}
	c.qmu.Unlock()
	c.writer.Add(1)
	go func() {
		defer c.writer.Done()
		c.writeLoop()
	}()
	m, err := c.readFrame(time.Now().Add(timeout))
	if err != nil {
		return nil, err
	}
	if m.Kind != Hello {
		return nil, fmt.Errorf("wire: expected hello, got %s", KindName(m.Kind))
	}
	return m, nil
}

// Read returns the next frame of a kind this version knows, waiting
// until deadline at most. Frames of unknown kinds are logged and
// skipped: newer peers with extra message types must not cost the
// connection. After a Close with a reason, Read reports that reason.
func (c *Conn) Read(deadline time.Time) (*Message, error) {
	for {
		m, err := c.readFrame(deadline)
		if !errors.Is(err, ErrUnknownKind) {
			return m, err
		}
		if c.cfg.Logf != nil {
			c.cfg.Logf("skipping unknown message kind %d", m.Kind)
		}
	}
}

func (c *Conn) readFrame(deadline time.Time) (*Message, error) {
	c.nc.SetReadDeadline(deadline)
	m, n, err := ReadCounted(c.r)
	if m != nil {
		c.cfg.Counters.frame(m.Kind, n, true)
	}
	if err != nil && !errors.Is(err, ErrUnknownKind) {
		if cause := c.CloseReason(); cause != nil {
			err = cause
		}
	}
	return m, err
}

// Send queues m for the writer and returns without waiting. If m would
// take a non-empty queue past the budget the connection is closed
// instead; an empty queue accepts any frame, so a frame larger than the
// budget can still go out alone.
func (c *Conn) Send(m *Message) error {
	size := QueuedBytes(m)
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if !c.closed && c.queued > 0 && c.queued+size > c.cfg.Budget {
		c.closeLocked(ErrQueueOverflow)
		return ErrQueueOverflow
	}
	return c.enqueueLocked(m, size)
}

// SendPaced queues m once at most limit bytes are queued or in flight
// (or none, for a frame larger than limit), blocking only its caller
// until then. Paced frames never overflow the queue: they keep the
// backpressure of a synchronous write, bounded by the writer's
// deadline, which closes a connection whose remote stops reading.
func (c *Conn) SendPaced(m *Message, limit int) error {
	size := QueuedBytes(m)
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for !c.closed && c.queued > 0 && c.queued+size > limit {
		c.qcond.Wait()
	}
	return c.enqueueLocked(m, size)
}

func (c *Conn) enqueueLocked(m *Message, size int) error {
	if c.closed {
		return errClosed
	}
	c.queue = append(c.queue, *m)
	c.queued += size
	if len(c.queue) == 1 {
		c.qcond.Broadcast()
	}
	return nil
}

// Queued returns the bytes charged for frames queued or in the
// writer's current drain.
func (c *Conn) Queued() int {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.queued
}

// Close marks c closed, drops its queue, wakes the writer and every
// paced sender, and closes the socket, which also fails a read or write
// in progress. Only the first call has any effect; its reason, nil for
// an ordinary teardown, is what CloseReason and Read report.
func (c *Conn) Close(reason error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	c.closeLocked(reason)
}

func (c *Conn) closeLocked(reason error) {
	if c.closed {
		return
	}
	c.closed, c.closeErr, c.queue = true, reason, nil
	c.qcond.Broadcast()
	c.nc.Close()
}

// Wait blocks until the writer Handshake started has exited, which it
// does promptly after Close.
func (c *Conn) Wait() { c.writer.Wait() }

// CloseReason returns why c was closed, or nil.
func (c *Conn) CloseReason() error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.closeErr
}

// writeLoop drains c's out-queue until c closes. Each pass takes every
// queued frame, buffers them all in c.w under one write deadline and
// flushes once. A failed or timed-out drain closes the connection.
func (c *Conn) writeLoop() {
	var batch []Message
	for {
		c.qmu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.qcond.Wait()
		}
		if c.closed {
			c.qmu.Unlock()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.qmu.Unlock()

		err := c.drain(batch)
		drained := 0
		for i := range batch {
			drained += QueuedBytes(&batch[i])
		}
		clear(batch) // release payloads before the next wait
		c.qmu.Lock()
		c.queued -= drained
		c.qcond.Broadcast()
		c.qmu.Unlock()
		if err != nil {
			c.Close(fmt.Errorf("write: %w", err))
			return
		}
	}
}

// drain writes one batch of frames and flushes them.
func (c *Conn) drain(batch []Message) error {
	c.nc.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	for i := range batch {
		n, err := WriteFrame(c.w, &batch[i])
		if err != nil {
			return err
		}
		c.cfg.Counters.frame(batch[i].Kind, n, false)
	}
	return c.w.Flush()
}
