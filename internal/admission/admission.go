// Package admission is the concurrent transaction front end: a
// service that sits between the network and the mempool and batches
// verification work across independently submitted transactions.
//
// The pipeline has four stages (see DESIGN.md for the diagram and
// invariants):
//
//  1. Intake, on the submitter's goroutine: a size cap, a per-source
//     token-bucket rate limit, syntax (a borrowed decode into pooled
//     scratch, which also yields the pool id), and duplicate-by-id —
//     nothing here takes a lock but the pool's read lock, held for one
//     map probe of its id index. Rejections here never consume
//     verification work. A queued submission holds its wire bytes.
//  2. Batching: a bounded queue feeds a single collector goroutine
//     that gathers up to Config.BatchSize transactions or waits at
//     most Config.BatchWindow, whichever fills first.
//  3. Verification: the backend borrow-decodes the batch into one
//     scratch arena and validates it at once — EV+SV fan out across
//     the worker pool, and every input of every transaction lands in
//     one batched Unspent Validation probe (core.ValidateTxsBatch).
//  4. Commit: survivors enter the mempool in submission order under a
//     single lock acquisition (mempool.Pool.CommitBatch), where
//     duplicate, conflict, and fee-market eviction checks run exactly
//     as sequential Add would run them. The pool copies each
//     survivor's bytes once; the batch's decodes are then dropped.
//
// Equivalence: for any submission stream, the verdict (sentinel error
// and wire code) each transaction receives equals what sequential
// Mempool.Add calls in the same order would produce; the batched path
// only changes when the work happens, never the answer. The
// admission_test.go equivalence gate enforces this over an adversarial
// corpus.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/core"
	"ebv/internal/hashx"
	"ebv/internal/mempool"
)

// Intake errors. Each maps to a stable one-byte wire code (CodeFor) so
// a remote submitter can tell backpressure from rejection.
var (
	// ErrRateLimited rejects a submission whose source exhausted its
	// token bucket. The submitter should back off; nothing was decoded
	// or verified.
	ErrRateLimited = errors.New("admission: source rate limited")
	// ErrQueueFull rejects a submission that found the intake queue at
	// capacity — the service is saturated and sheds load at the edge
	// rather than buffering without bound.
	ErrQueueFull = errors.New("admission: intake queue full")
	// ErrTooLarge rejects a submission bigger than Config.MaxTxBytes
	// before any decode work.
	ErrTooLarge = errors.New("admission: transaction exceeds size limit")
	// ErrMalformed rejects bytes that do not decode as a transaction.
	ErrMalformed = errors.New("admission: malformed transaction")
	// ErrClosed rejects submissions arriving after Close.
	ErrClosed = errors.New("admission: service closed")
)

// Reject codes carried in the txack wire message. Stable: codes are
// append-only, never renumbered.
const (
	CodeOK          byte = 0  // admitted
	CodeInvalid     byte = 1  // failed chain-state validation (core.ErrInvalidBlock)
	CodeDuplicate   byte = 2  // already pooled (mempool.ErrDuplicate)
	CodeConflict    byte = 3  // spends an output a pooled tx spends (mempool.ErrConflict)
	CodePoolFull    byte = 4  // pool at capacity, fee rate too low to evict (mempool.ErrPoolFull)
	CodeBelowFloor  byte = 5  // fee rate at or below the eviction floor (mempool.ErrBelowEvictionFloor)
	CodeRateLimited byte = 6  // source over its rate limit (ErrRateLimited)
	CodeQueueFull   byte = 7  // intake queue saturated (ErrQueueFull)
	CodeMalformed   byte = 8  // undecodable bytes (ErrMalformed)
	CodeTooLarge    byte = 9  // above the size cap (ErrTooLarge)
	CodeClosed      byte = 10 // service shutting down (ErrClosed)
)

// CodeFor maps a verdict error to its wire code. Specific sentinels
// first; any other error is a chain-state validation failure.
func CodeFor(err error) byte {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrRateLimited):
		return CodeRateLimited
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrTooLarge):
		return CodeTooLarge
	case errors.Is(err, ErrMalformed):
		return CodeMalformed
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, mempool.ErrDuplicate):
		return CodeDuplicate
	case errors.Is(err, mempool.ErrConflict):
		return CodeConflict
	case errors.Is(err, mempool.ErrBelowEvictionFloor):
		return CodeBelowFloor
	case errors.Is(err, mempool.ErrPoolFull):
		return CodePoolFull
	default:
		return CodeInvalid
	}
}

// ErrForCode is CodeFor's inverse on the client side: the sentinel a
// remote submitter should surface for a txack reject code. CodeInvalid
// maps to core.ErrInvalidBlock (the sentinel every validation error
// wraps); unknown codes map to a generic error.
func ErrForCode(code byte) error {
	switch code {
	case CodeOK:
		return nil
	case CodeInvalid:
		return core.ErrInvalidBlock
	case CodeDuplicate:
		return mempool.ErrDuplicate
	case CodeConflict:
		return mempool.ErrConflict
	case CodePoolFull:
		return mempool.ErrPoolFull
	case CodeBelowFloor:
		return mempool.ErrBelowEvictionFloor
	case CodeRateLimited:
		return ErrRateLimited
	case CodeQueueFull:
		return ErrQueueFull
	case CodeMalformed:
		return ErrMalformed
	case CodeTooLarge:
		return ErrTooLarge
	case CodeClosed:
		return ErrClosed
	default:
		return fmt.Errorf("admission: unknown reject code %d", code)
	}
}

// CodeString names a code for logs and load-generator reports.
func CodeString(code byte) string {
	switch code {
	case CodeOK:
		return "ok"
	case CodeInvalid:
		return "invalid"
	case CodeDuplicate:
		return "duplicate"
	case CodeConflict:
		return "conflict"
	case CodePoolFull:
		return "pool-full"
	case CodeBelowFloor:
		return "below-floor"
	case CodeRateLimited:
		return "rate-limited"
	case CodeQueueFull:
		return "queue-full"
	case CodeMalformed:
		return "malformed"
	case CodeTooLarge:
		return "too-large"
	case CodeClosed:
		return "closed"
	default:
		return fmt.Sprintf("code-%d", code)
	}
}

// Config bounds the service.
type Config struct {
	// BatchSize is the most transactions verified in one batch.
	// Default 64.
	BatchSize int
	// BatchWindow is the longest the collector waits to fill a batch
	// once it holds at least one transaction. Default 2ms.
	BatchWindow time.Duration
	// QueueDepth bounds the intake queue; a full queue rejects with
	// ErrQueueFull. Default 1024.
	QueueDepth int
	// MaxTxBytes rejects submissions above this encoded size before
	// decoding. Default 1 MiB.
	MaxTxBytes int
	// RatePerSource is the sustained per-source submission rate in
	// transactions per second (token-bucket refill). 0 disables rate
	// limiting.
	RatePerSource float64
	// RateBurst is the token-bucket capacity — the burst a source may
	// submit after idling. Default: RatePerSource rounded up, min 1.
	RateBurst int
	// Workers is the goroutine count for batch verification. Default:
	// the backend's choice (0 passes through).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxTxBytes <= 0 {
		c.MaxTxBytes = 1 << 20
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(c.RatePerSource + 1)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c
}

// Result is one submission's verdict.
type Result struct {
	ID   hashx.Hash // pool id; zero when the bytes never decoded
	Err  error      // nil on admit
	Code byte       // CodeFor(Err)
}

// request is one queued submission awaiting batch verification.
type request struct {
	sub  Submission
	done func(Result)
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	Submitted int64 // submissions received, including intake rejections
	Admitted  int64 // transactions committed to the pool
	Rejected  int64 // rejections at any stage
	Batches   int64 // verification batches flushed
	BatchTxs  int64 // transactions across all batches (BatchTxs/Batches = mean batch)
}

// Service is the admission front end. Safe for concurrent use; one
// collector goroutine owns batching and commit order.
type Service struct {
	cfg     Config
	backend Backend

	mu     sync.RWMutex // closed/queue lifecycle; RLock on the enqueue path
	closed bool
	queue  chan request

	wg       sync.WaitGroup
	limiters sync.Map // source string -> *bucket

	submitted atomic.Int64
	admitted  atomic.Int64
	rejected  atomic.Int64
	batches   atomic.Int64
	batchTxs  atomic.Int64
}

// New starts a service in front of backend.
func New(backend Backend, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		backend: backend,
		queue:   make(chan request, cfg.QueueDepth),
	}
	s.wg.Add(1)
	go s.batchLoop()
	return s
}

// Submit runs one raw transaction through the pipeline and blocks
// until its verdict.
func (s *Service) Submit(source string, raw []byte) Result {
	ch := make(chan Result, 1)
	s.SubmitAsync(source, raw, func(r Result) { ch <- r })
	return <-ch
}

// SubmitAsync runs the intake stage on the caller's goroutine and
// queues the transaction for batch verification. done is called
// exactly once with the verdict — synchronously for intake rejections,
// from the collector goroutine otherwise. done must not block for
// long: it delays verdict delivery for the rest of its batch.
//
// The service keeps raw, not a decoded copy, until done fires: the
// caller must leave raw unmodified until then (a p2p frame body is a
// fresh allocation per frame). The pool copies what it keeps on admit,
// so raw is the caller's again once done has been called.
func (s *Service) SubmitAsync(source string, raw []byte, done func(Result)) {
	s.submitted.Add(1)
	if len(raw) > s.cfg.MaxTxBytes {
		done(s.reject(hashx.ZeroHash, fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(raw), s.cfg.MaxTxBytes)))
		return
	}
	if !s.allow(source) {
		done(s.reject(hashx.ZeroHash, ErrRateLimited))
		return
	}
	sub, err := s.backend.Decode(raw)
	if err != nil {
		done(s.reject(hashx.ZeroHash, fmt.Errorf("%w: %v", ErrMalformed, err)))
		return
	}
	// Duplicate-by-id sheds resubmit floods under the pool's read
	// lock, which waits only on a commit. Only POOLED ids count: a transaction still in flight (or one
	// that was rejected) is not deduplicated here, so a resubmission
	// re-validates and receives the same verdict sequential admission
	// would give it. The pool's locked duplicate check remains
	// authoritative.
	if s.backend.Contains(sub.ID()) {
		done(s.reject(sub.ID(), mempool.ErrDuplicate))
		return
	}
	req := request{sub: sub, done: done}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		done(s.reject(sub.ID(), ErrClosed))
		return
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		done(s.reject(sub.ID(), ErrQueueFull))
	}
}

func (s *Service) reject(id hashx.Hash, err error) Result {
	s.rejected.Add(1)
	return Result{ID: id, Err: err, Code: CodeFor(err)}
}

// Close stops the collector after draining every queued submission —
// each still receives its verdict — and waits for it to exit.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	return Stats{
		Submitted: s.submitted.Load(),
		Admitted:  s.admitted.Load(),
		Rejected:  s.rejected.Load(),
		Batches:   s.batches.Load(),
		BatchTxs:  s.batchTxs.Load(),
	}
}

// batchLoop is the collector: it gathers up to BatchSize queued
// submissions (waiting at most BatchWindow once it holds one) and
// flushes each batch through the backend. Batches flush in queue
// order, and the backend commits each batch in slice order, so the
// pool sees submissions in the order the queue accepted them.
func (s *Service) batchLoop() {
	defer s.wg.Done()
	batch := make([]request, 0, s.cfg.BatchSize)
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	for {
		req, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], req)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(s.cfg.BatchWindow)
	collect:
		for len(batch) < s.cfg.BatchSize {
			select {
			case req, ok := <-s.queue:
				if !ok {
					break collect
				}
				batch = append(batch, req)
			case <-timer.C:
				break collect
			}
		}
		s.flush(batch)
	}
}

// flush verifies and commits one batch and delivers the verdicts.
func (s *Service) flush(batch []request) {
	subs := make([]Submission, len(batch))
	for i := range batch {
		subs[i] = batch[i].sub
	}
	errs := s.backend.CommitBatch(subs, s.cfg.Workers)
	s.batches.Add(1)
	s.batchTxs.Add(int64(len(batch)))
	for i := range batch {
		err := errs[i]
		if err == nil {
			s.admitted.Add(1)
		} else {
			s.rejected.Add(1)
		}
		batch[i].done(Result{ID: subs[i].ID(), Err: err, Code: CodeFor(err)})
	}
}

// bucket is one source's token bucket.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// allow takes one token from source's bucket, refilling at
// RatePerSource tokens per second up to RateBurst.
func (s *Service) allow(source string) bool {
	if s.cfg.RatePerSource <= 0 {
		return true
	}
	v, ok := s.limiters.Load(source)
	if !ok {
		v, _ = s.limiters.LoadOrStore(source, &bucket{
			tokens: float64(s.cfg.RateBurst),
			last:   time.Now(),
		})
	}
	b := v.(*bucket)
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * s.cfg.RatePerSource
	if max := float64(s.cfg.RateBurst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
