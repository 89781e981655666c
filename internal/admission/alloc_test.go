//go:build !race

package admission

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ebv/internal/mempool"
)

// admitAllocsPerTx is the allocation budget of one admitted one-input
// transaction from intake to commit. Measured at 13.0 with go1.24:
// about 7 in script execution (the uncached SV check), 1 submission
// record, 2 for the pool's record and spends, 1 for its copy of the
// bytes, and about 1 for map slots; the per-batch allocations are
// spread over the batch. The same test measures 15.3–15.6 with a
// second, lock-free id index beside the entry map, and 26.2 with the
// pool holding decoded transactions.
const admitAllocsPerTx = 16

// TestAdmissionAllocBudget pins the objects one admitted transaction
// allocates on its whole way through the service — intake decode,
// queue, batch decode, ValidateTxsBatch and CommitBatch — on a warm
// service (the pooled scratches sized by a first pass). One batch of
// n spends is admitted into a fresh pool with collection off, so the
// count is exact. Excluded from -race builds, whose instrumentation
// skews allocation accounting.
func TestAdmissionAllocBudget(t *testing.T) {
	e := newEnv(t, 250)
	const n = 32
	var raws [][]byte
	for _, h := range e.unspentCoinbases(t, n) {
		raws = append(raws, e.spendCoinbaseAt(t, h, 5_000).Encode(nil))
	}
	admitAll := func() float64 {
		pool := mempool.New(e.val, mempool.Config{})
		svc := New(&EBVBackend{Pool: pool, Validator: e.val}, Config{
			BatchSize: n, BatchWindow: time.Minute, QueueDepth: n, Workers: 1,
		})
		defer svc.Close()
		verdicts := make(chan Result, n)
		done := func(r Result) { verdicts <- r }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, raw := range raws {
			svc.SubmitAsync("alloc", raw, done)
		}
		for range raws {
			if r := <-verdicts; r.Err != nil {
				t.Fatalf("spend rejected: %v", r.Err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / n
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	admitAll() // size the pooled scratches
	got := admitAll()
	t.Logf("admission: %.2f allocs per admitted transaction (%d one-input spends, one batch)", got, n)
	if got > admitAllocsPerTx {
		t.Errorf("admission allocates %.2f objects per admitted transaction, budget %d", got, admitAllocsPerTx)
	}
}
