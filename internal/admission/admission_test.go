package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ebv/internal/hashx"
	"ebv/internal/mempool"
)

// stubSub carries just an id.
type stubSub struct{ id hashx.Hash }

func (s stubSub) ID() hashx.Hash { return s.id }

// stubBackend decodes the raw bytes as the id itself and records
// committed batches. gate, when non-nil, blocks every CommitBatch
// until it is closed — for building deterministic queue states.
type stubBackend struct {
	gate    chan struct{}
	entered chan struct{} // one send per CommitBatch call, if non-nil

	mu      sync.Mutex
	pooled  map[hashx.Hash]bool
	batches [][]hashx.Hash
}

func (b *stubBackend) Decode(raw []byte) (Submission, error) {
	if len(raw) == 0 {
		return nil, errors.New("empty")
	}
	var id hashx.Hash
	copy(id[:], raw)
	return stubSub{id}, nil
}

func (b *stubBackend) Contains(id hashx.Hash) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pooled[id]
}

func (b *stubBackend) CommitBatch(subs []Submission, workers int) []error {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.gate != nil {
		<-b.gate
	}
	ids := make([]hashx.Hash, len(subs))
	for i := range subs {
		ids[i] = subs[i].ID()
	}
	b.mu.Lock()
	b.batches = append(b.batches, ids)
	b.mu.Unlock()
	return make([]error, len(subs))
}

func rawID(i byte) []byte { return []byte{i + 1} } // non-empty, distinct

// TestBatchingBoundsAndOrder pins the collector contract: batches
// never exceed BatchSize, and concatenated batch contents preserve
// queue order — the property the equivalence gate rests on.
func TestBatchingBoundsAndOrder(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{})}
	s := New(b, Config{BatchSize: 4, QueueDepth: 64, BatchWindow: 5 * time.Millisecond})
	defer s.Close()

	const n = 10
	var wg sync.WaitGroup
	wg.Add(n)
	for i := byte(0); i < n; i++ {
		s.SubmitAsync("src", rawID(i), func(r Result) {
			if r.Err != nil {
				t.Errorf("unexpected reject: %v", r.Err)
			}
			wg.Done()
		})
	}
	close(b.gate)
	wg.Wait()

	b.mu.Lock()
	defer b.mu.Unlock()
	var flat []hashx.Hash
	for _, batch := range b.batches {
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds BatchSize 4", len(batch))
		}
		flat = append(flat, batch...)
	}
	if len(flat) != n {
		t.Fatalf("committed %d of %d", len(flat), n)
	}
	for i := byte(0); i < n; i++ {
		var want hashx.Hash
		copy(want[:], rawID(i))
		if flat[i] != want {
			t.Fatalf("batch order broken at %d", i)
		}
	}
	st := s.Stats()
	if st.Admitted != n || st.Submitted != n || st.BatchTxs != n {
		t.Fatalf("stats %+v", st)
	}
}

// TestQueueFullSheds pins backpressure: with the collector wedged and
// the one queue slot taken, the next submission is rejected on the
// caller's goroutine with ErrQueueFull.
func TestQueueFullSheds(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := New(b, Config{BatchSize: 1, QueueDepth: 1, BatchWindow: time.Hour})

	results := make(chan Result, 2)
	s.SubmitAsync("src", rawID(0), func(r Result) { results <- r })
	<-b.entered // collector holds tx 0 inside CommitBatch
	s.SubmitAsync("src", rawID(1), func(r Result) { results <- r })

	got := s.Submit("src", rawID(2)) // queue full: rejected synchronously
	if !errors.Is(got.Err, ErrQueueFull) || got.Code != CodeQueueFull {
		t.Fatalf("want ErrQueueFull, got %v (code %d)", got.Err, got.Code)
	}

	close(b.gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.Err != nil {
			t.Fatalf("queued submission rejected: %v", r.Err)
		}
	}
	s.Close()
}

// TestRateLimitPerSource pins the token bucket: burst 1 admits one
// submission, the immediate second is shed before decode, and an
// unrelated source is unaffected.
func TestRateLimitPerSource(t *testing.T) {
	b := &stubBackend{}
	s := New(b, Config{RatePerSource: 0.001, RateBurst: 1})
	defer s.Close()

	if r := s.Submit("a", rawID(0)); r.Err != nil {
		t.Fatalf("first submission: %v", r.Err)
	}
	if r := s.Submit("a", rawID(1)); !errors.Is(r.Err, ErrRateLimited) || r.Code != CodeRateLimited {
		t.Fatalf("want ErrRateLimited, got %v (code %d)", r.Err, r.Code)
	}
	if r := s.Submit("b", rawID(2)); r.Err != nil {
		t.Fatalf("other source must have its own bucket: %v", r.Err)
	}
}

// TestIntakeRejections covers size cap, malformed bytes, and the
// pooled-duplicate probe.
func TestIntakeRejections(t *testing.T) {
	var dupID hashx.Hash
	copy(dupID[:], rawID(7))
	b := &stubBackend{pooled: map[hashx.Hash]bool{dupID: true}}
	s := New(b, Config{MaxTxBytes: 4})
	defer s.Close()

	if r := s.Submit("src", make([]byte, 5)); !errors.Is(r.Err, ErrTooLarge) || r.Code != CodeTooLarge {
		t.Fatalf("oversize: %v (code %d)", r.Err, r.Code)
	}
	if r := s.Submit("src", nil); !errors.Is(r.Err, ErrMalformed) || r.Code != CodeMalformed {
		t.Fatalf("malformed: %v (code %d)", r.Err, r.Code)
	}
	r := s.Submit("src", rawID(7))
	if !errors.Is(r.Err, mempool.ErrDuplicate) || r.Code != CodeDuplicate {
		t.Fatalf("duplicate: %v (code %d)", r.Err, r.Code)
	}
	if r.ID != dupID {
		t.Fatal("duplicate verdict must carry the id")
	}
	if st := s.Stats(); st.Rejected != 3 || st.Batches != 0 {
		t.Fatalf("rejections must not reach the backend: %+v", st)
	}
}

// TestCloseDrainsThenRejects pins shutdown: queued submissions still
// get verdicts, later ones get ErrClosed.
func TestCloseDrainsThenRejects(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := New(b, Config{BatchSize: 1, QueueDepth: 8, BatchWindow: time.Hour})

	results := make(chan Result, 2)
	s.SubmitAsync("src", rawID(0), func(r Result) { results <- r })
	<-b.entered
	s.SubmitAsync("src", rawID(1), func(r Result) { results <- r })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	close(b.gate)
	<-closed
	for i := 0; i < 2; i++ {
		if r := <-results; r.Err != nil {
			t.Fatalf("draining submission rejected: %v", r.Err)
		}
	}
	if r := s.Submit("src", rawID(2)); !errors.Is(r.Err, ErrClosed) || r.Code != CodeClosed {
		t.Fatalf("post-close: %v (code %d)", r.Err, r.Code)
	}
	s.Close() // idempotent
}

// TestCodeRoundTrip pins the wire codes: ErrForCode inverts CodeFor
// for every code, and both directions are stable.
func TestCodeRoundTrip(t *testing.T) {
	if CodeFor(nil) != CodeOK || ErrForCode(CodeOK) != nil {
		t.Fatal("nil must map to CodeOK and back")
	}
	for code := byte(1); code <= CodeClosed; code++ {
		err := ErrForCode(code)
		if err == nil {
			t.Fatalf("code %d has no sentinel", code)
		}
		if got := CodeFor(err); got != code {
			t.Fatalf("code %d round-trips to %d", code, got)
		}
		if CodeString(code) == "" {
			t.Fatalf("code %d has no name", code)
		}
	}
	if got := CodeFor(errors.New("anything else")); got != CodeInvalid {
		t.Fatalf("unknown errors must map to CodeInvalid, got %d", got)
	}
}
