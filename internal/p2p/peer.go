package p2p

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
	"ebv/internal/p2p/wire"
)

// Outbound path. Every frame to a peer goes through its out-queue, a
// FIFO drained by one writer goroutine per connection: send appends
// and returns, and the writer takes everything queued, buffers each
// frame in the peer's bufio.Writer and flushes once, under a single
// write deadline per drain. The admission collector's txacks, relay
// fan-out and light pushes therefore never wait on a socket, and the
// acks of one batch leave in one write.
//
// The queue is bounded by a byte budget. A plain send that would take
// a non-empty queue past it drops the peer, as does a drain that
// cannot finish within WriteTimeout, so a peer that stops reading
// costs bounded memory and delays nobody else. Callers that must keep
// backpressure instead — the block-serving loops and the light drain —
// use sendPaced, which waits for the queue to drain.

// defaultQueueBudget bounds the bytes one peer may hold queued or in
// the writer's current drain: room for several full blocks with their
// proofs (blockmodel.MaxBlockBytes is 1 MB before proofs), far above
// what a peer that is reading ever accumulates.
const defaultQueueBudget = 8 << 20

// errQueueOverflow closes a peer whose out-queue would exceed its
// budget.
var errQueueOverflow = errors.New("out-queue over budget")

// errPeerClosed is returned by sends to a closed peer.
var errPeerClosed = errors.New("p2p: peer closed")

// queuedBytes is what one queued message is charged against its peer's
// budget: the message value plus the variable-length fields it holds,
// which bounds both its frame size and the memory it pins.
func queuedBytes(m *wire.Message) int {
	return int(unsafe.Sizeof(*m)) + len(m.Payload) + len(m.TipWork) + len(m.Hashes)*hashx.Size
}

// peer is one live connection.
type peer struct {
	id           string
	conn         net.Conn
	r            *bufio.Reader
	writeTimeout time.Duration
	// features holds the peer's hello feature bits. Atomic because
	// announce() consults it from the submitting goroutine while the
	// handshake may still be writing it; until the hello arrives it
	// reads zero and the peer is treated as featureless.
	features  atomic.Uint32
	nonce     uint64 // our hello nonce: the salt for compact blocks we announce here
	peerNonce uint64 // the peer's hello nonce: the salt for compact blocks it announces
	strikes   atomic.Int32

	traffic *traffic

	w *bufio.Writer // used only by writeLoop

	qmu sync.Mutex
	// qcond is broadcast when the queue gains its first frame, when a
	// drain completes and when the peer closes; the writer and paced
	// senders wait on it.
	qcond    sync.Cond
	queue    []wire.Message
	queued   int // bytes charged for frames queued or in the current drain
	budget   int
	closed   bool
	closeErr error // why the peer was closed, nil for an ordinary teardown
}

func newPeer(id string, conn net.Conn, writeTimeout time.Duration, budget int, t *traffic) *peer {
	p := &peer{
		id:           id,
		conn:         conn,
		r:            bufio.NewReader(conn),
		w:            bufio.NewWriter(conn),
		writeTimeout: writeTimeout,
		nonce:        newNonce(),
		traffic:      t,
		budget:       budget,
	}
	p.qcond.L = &p.qmu
	return p
}

func (p *peer) hasFeature(bit byte) bool {
	return byte(p.features.Load())&bit != 0
}

// send queues m for the writer and returns without waiting. If m would
// take a non-empty queue past the budget the peer is closed instead;
// an empty queue accepts any frame, so a frame larger than the budget
// can still go out alone.
func (p *peer) send(m *wire.Message) error {
	size := queuedBytes(m)
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if !p.closed && p.queued > 0 && p.queued+size > p.budget {
		p.closeLocked(errQueueOverflow)
		return errQueueOverflow
	}
	return p.enqueueLocked(m, size)
}

// sendPaced queues m once at most limit bytes are queued or in flight
// (or none, for a frame larger than limit), blocking only its caller
// until then. Paced frames never overflow the queue: they keep the
// backpressure of a synchronous write, bounded by the writer's
// deadline, which closes a peer that stops reading.
func (p *peer) sendPaced(m *wire.Message, limit int) error {
	size := queuedBytes(m)
	p.qmu.Lock()
	defer p.qmu.Unlock()
	for !p.closed && p.queued > 0 && p.queued+size > limit {
		p.qcond.Wait()
	}
	return p.enqueueLocked(m, size)
}

// sendFirst puts m at the head of the queue. The handshake calls it
// before starting the writer, so m is the first frame on the wire.
func (p *peer) sendFirst(m *wire.Message) {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if !p.closed {
		p.queue = slices.Insert(p.queue, 0, *m)
		p.queued += queuedBytes(m)
	}
}

func (p *peer) enqueueLocked(m *wire.Message, size int) error {
	if p.closed {
		return errPeerClosed
	}
	p.queue = append(p.queue, *m)
	p.queued += size
	if len(p.queue) == 1 {
		p.qcond.Broadcast()
	}
	return nil
}

// close marks p closed, drops its queue, wakes the writer and every
// paced sender, and closes the connection, which also fails a write in
// progress. Only the first call has any effect; its reason is kept for
// the log.
func (p *peer) close(reason error) {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	p.closeLocked(reason)
}

func (p *peer) closeLocked(reason error) {
	if p.closed {
		return
	}
	p.closed, p.closeErr, p.queue = true, reason, nil
	p.qcond.Broadcast()
	p.conn.Close()
}

// closeReason returns why p was closed, or nil.
func (p *peer) closeReason() error {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	return p.closeErr
}

// writeLoop drains p's out-queue until p closes. Each pass takes every
// queued frame, buffers them all in p.w under one write deadline and
// flushes once; frames are counted per kind as they are written. A
// failed or timed-out drain closes the peer.
func (p *peer) writeLoop() {
	var batch []wire.Message
	for {
		p.qmu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.qcond.Wait()
		}
		if p.closed {
			p.qmu.Unlock()
			return
		}
		batch, p.queue = p.queue, batch[:0]
		p.qmu.Unlock()

		err := p.drain(batch)
		drained := 0
		for i := range batch {
			drained += queuedBytes(&batch[i])
		}
		clear(batch) // release payloads before the next wait
		p.qmu.Lock()
		p.queued -= drained
		p.qcond.Broadcast()
		p.qmu.Unlock()
		if err != nil {
			p.close(fmt.Errorf("write: %w", err))
			return
		}
	}
}

// drain writes one batch of frames and flushes them.
func (p *peer) drain(batch []wire.Message) error {
	p.conn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
	for i := range batch {
		n, err := wire.WriteFrame(p.w, &batch[i])
		if err != nil {
			return err
		}
		p.traffic.count(batch[i].Kind, n, false)
	}
	return p.w.Flush()
}
