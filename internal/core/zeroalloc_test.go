//go:build !race

package core

import (
	"runtime"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/ingest"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// warmAdmissionAllocs is the allocation budget of one warm admission
// batch: the verdict slice and the verify stage's task closure.
const warmAdmissionAllocs = 2

// TestWarmAdmissionAllocBudget pins the allocation contract of batch
// admission: once every input's proof is in the verified-proof cache
// and the scratch and the pooled verdict storage are at steady state,
// a ValidateTxsBatch allocates a constant number of objects per batch,
// however many transactions and inputs it carries — the cache key is
// derived from memoized hashes into stack buffers, the LRU probe is
// allocation-free, and the batched UV probe reuses the scratch.
// Excluded from -race builds, whose instrumentation skews allocation
// accounting.
func TestWarmAdmissionAllocBudget(t *testing.T) {
	f := newFixture(t, 120)
	v, _ := syncedEBV(t, f, WithVerificationCache(vcache.New(0)))
	blk := reencode(t, f.lastEBV)
	tx := spendingTx(blk)
	if tx == nil {
		t.Skip("no usable spends in last block")
	}
	warmFromMempool(t, v, f.lastEBV)
	s := ingest.NewScratch()
	perBatch := func(txs []*txmodel.EBVTx) float64 {
		check := func() {
			for _, err := range v.ValidateTxsBatch(txs, 1, s) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		check() // size the scratch and the pooled verdicts
		return testing.AllocsPerRun(200, check)
	}
	whole := perBatch(blk.Txs[1:])
	one := perBatch([]*txmodel.EBVTx{tx})
	t.Logf("warm admission: %.0f allocs for a %d-input batch, %.0f for a %d-input batch",
		whole, blk.TotalInputs(), one, len(tx.Bodies))
	if whole != one || whole > warmAdmissionAllocs {
		t.Errorf("warm admission allocates %.0f objects for %d inputs and %.0f for %d, want a constant <= %d",
			whole, blk.TotalInputs(), one, len(tx.Bodies), warmAdmissionAllocs)
	}

	// The uncached EV step is allocation-free: the tidy leaf hash is
	// memoized and the Merkle fold runs in a stack scratch buffer.
	body := &tx.Bodies[0]
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := v.evInput(body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("evInput allocates %.1f objects/input, want 0", avg)
	}
}

// TestWarmDecodeZeroAllocs pins the borrowed-bytes decode contract at
// the block level: once the scratch arena's slabs have grown to the
// block's shape, decoding the same wire bytes again allocates nothing —
// every slice comes from the arena and every byte field aliases the
// input buffer.
func TestWarmDecodeZeroAllocs(t *testing.T) {
	f := newFixture(t, 120)
	raw := f.lastEBV.Encode(nil)
	s := ingest.NewScratch()
	for i := 0; i < 3; i++ { // size the arena slabs
		if _, err := s.DecodeEBVBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.DecodeEBVBlock(raw); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm zero-copy block decode allocates %.1f objects/block, want 0", avg)
	}
}

// wireValidator replays the fixture chain up to (not including) the
// last block into a fresh validator whose header source the caller
// controls, so the last block can be connected and disconnected in a
// cycle: DisconnectBlock insists the block is the stored header tip,
// which means the cycle must append its header before disconnecting
// and truncate after.
func wireValidator(t testing.TB, f *fixture) (*EBVValidator, *memHeaders) {
	t.Helper()
	mh := &memHeaders{hdrs: make([]blockmodel.Header, 0, len(f.ebv))}
	status := statusdb.New()
	v := NewEBVValidator(status, script.NewEngine(f.gen.Scheme()), mh,
		WithVerificationCache(vcache.New(0)))
	v.SetBlockOutputsFunc(func(h uint64) int { return f.ebv[h].TotalOutputs() })
	for i := 0; i < len(f.ebv)-1; i++ {
		if _, err := v.ConnectBlock(f.ebv[i]); err != nil {
			t.Fatalf("synced connect %d: %v", i, err)
		}
		mh.hdrs = append(mh.hdrs, f.ebv[i].Header)
	}
	return v, mh
}

// warmConnectCycle re-admits the block's transactions (the commit
// retires the keys it hits, so each cycle must warm the cache again),
// decodes raw through s, connects the block with a mallocs count taken
// around the connect alone, then disconnects so the next cycle replays
// the same block against the same status state.
func warmConnectCycle(t testing.TB, v *EBVValidator, mh *memHeaders, s *ingest.Scratch, raw []byte, warm *blockmodel.EBVBlock) uint64 {
	warmFromMempool(t, v, warm)
	blk, err := s.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := v.ConnectBlockIn(blk, s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mh.hdrs = append(mh.hdrs, blk.Header)
	if err := v.DisconnectBlock(blk); err != nil {
		t.Fatal(err)
	}
	mh.hdrs = mh.hdrs[:len(mh.hdrs)-1]
	return after.Mallocs - before.Mallocs
}

// TestWarmConnectAllocBudget is the allocation gate for the whole
// wire-speed connect: with the verified-proof cache warm and the
// scratch, status-database pools, and commit slabs at steady state,
// connecting a block must allocate amortized less than one object per
// input. (It is not literally zero per block: the per-block breakdown,
// the commit's encode slab, and the staged tip vector are real and
// amortize across the block's inputs.)
func TestWarmConnectAllocBudget(t *testing.T) {
	f := newFixture(t, 120)
	v, mh := wireValidator(t, f)
	raw := f.lastEBV.Encode(nil)
	inputs := f.lastEBV.TotalInputs()
	if inputs == 0 {
		t.Skip("last block spends nothing")
	}
	// Warm the proof cache the way production does — admission, before
	// every cycle and outside its mallocs window — then the scratch,
	// pools, and slabs with a few cycles.
	s := ingest.NewScratch()
	for i := 0; i < 3; i++ {
		warmConnectCycle(t, v, mh, s, raw, f.lastEBV)
	}
	const rounds = 10
	var total uint64
	for i := 0; i < rounds; i++ {
		total += warmConnectCycle(t, v, mh, s, raw, f.lastEBV)
	}
	perBlock := float64(total) / rounds
	perInput := perBlock / float64(inputs)
	t.Logf("warm connect: %.1f allocs/block, %.3f allocs/input (%d inputs)", perBlock, perInput, inputs)
	if perInput >= 1 {
		t.Errorf("warm connect allocates %.2f objects/input, want < 1 (%.1f per block over %d inputs)",
			perInput, perBlock, inputs)
	}
}

// BenchmarkWarmDecodeConnect is the -benchmem form of the same gate:
// zero-copy decode from wire bytes plus connect against a
// mempool-warmed cache, cycled via disconnect and re-admission (both
// outside the timer, which also stops allocation accounting).
// scripts/check.sh runs it with -benchmem and fails when allocs/op
// regresses past the block's input count.
func BenchmarkWarmDecodeConnect(b *testing.B) {
	f := newFixture(b, 120)
	v, mh := wireValidator(b, f)
	raw := f.lastEBV.Encode(nil)
	inputs := f.lastEBV.TotalInputs()
	s := ingest.NewScratch()
	for i := 0; i < 3; i++ {
		warmConnectCycle(b, v, mh, s, raw, f.lastEBV)
	}
	warmFromMempool(b, v, f.lastEBV)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := s.DecodeEBVBlock(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.ConnectBlockIn(blk, s); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		mh.hdrs = append(mh.hdrs, blk.Header)
		if err := v.DisconnectBlock(blk); err != nil {
			b.Fatal(err)
		}
		mh.hdrs = mh.hdrs[:len(mh.hdrs)-1]
		warmFromMempool(b, v, f.lastEBV)
		b.StartTimer()
	}
	b.ReportMetric(float64(inputs), "inputs/block")
}
