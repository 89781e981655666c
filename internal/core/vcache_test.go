package core

import (
	"errors"
	"fmt"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/ingest"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// syncedEBV builds a fresh EBV validator with the given options and
// replays the fixture's chain into it, all but the last block.
func syncedEBV(t testing.TB, f *fixture, opts ...EBVOption) (*EBVValidator, *statusdb.DB) {
	t.Helper()
	chain2, err := chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chain2.Close() })
	status2 := statusdb.New()
	v := NewEBVValidator(status2, script.NewEngine(f.gen.Scheme()), chain2, opts...)
	for i := 0; i < len(f.ebv)-1; i++ {
		if _, err := v.ConnectBlock(f.ebv[i]); err != nil {
			t.Fatalf("synced connect %d: %v", i, err)
		}
		if err := chain2.Append(f.ebv[i].Header, f.ebv[i].Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	return v, status2
}

// warmFromMempool admits every non-coinbase transaction of blk through
// ValidateTx — the mempool path, which populates the validator's
// verified-proof cache. A separate decode of the block is used so the
// caller's block object shares nothing (in particular no memoized
// hashes) with the warming pass; the cache keys are content-derived,
// so the entries still match.
func warmFromMempool(t testing.TB, v *EBVValidator, blk *blockmodel.EBVBlock) {
	t.Helper()
	pre := reencode(t, blk)
	for i, tx := range pre.Txs {
		if i == 0 {
			continue
		}
		if err := v.ValidateTx(tx); err != nil {
			t.Fatalf("warming tx %d: %v", i, err)
		}
	}
}

// spendingTx returns the first transaction of blk that carries a
// proof-backed input with a mutable unlock script, or nil.
func spendingTx(blk *blockmodel.EBVBlock) *txmodel.EBVTx {
	for _, tx := range blk.Txs[1:] {
		if len(tx.Bodies) > 0 && len(tx.Bodies[0].UnlockScript) > 10 {
			return tx
		}
	}
	return nil
}

// connectRoute is one of the block-connect routes the cache rules
// must hold on.
type connectRoute struct {
	name    string
	opts    []EBVOption
	connect func(v *EBVValidator, b *blockmodel.EBVBlock) (*Breakdown, error)
}

// connectRoutes are the sequential connect, the parallel one, and the
// pipeline's Preverify + ConnectPreverified.
func connectRoutes() []connectRoute {
	return []connectRoute{
		{"workers=1", nil, (*EBVValidator).ConnectBlock},
		{"parallel", []EBVOption{WithParallelValidation(4)}, (*EBVValidator).ConnectBlock},
		{"preverified", nil, func(v *EBVValidator, b *blockmodel.EBVBlock) (*Breakdown, error) {
			pv, err := v.Preverify(b, nil, 4)
			if err != nil {
				return pv.Breakdown(), err
			}
			return v.ConnectPreverified(b, pv, nil)
		}},
	}
}

// TestConnectNeverInsertsIntoCache pins the cache's write rule:
// admission is the only route that inserts, and block connect probes
// the cache but never inserts. On every connect route, a cold cache stays empty through
// the chain replay and through the last block, whose every input
// misses. (The other half of the rule, that a committed block retires
// the keys it hit, is TestCommitRetiresCacheKeys.)
func TestConnectNeverInsertsIntoCache(t *testing.T) {
	f := newFixture(t, 150)
	for _, r := range connectRoutes() {
		t.Run(r.name, func(t *testing.T) {
			v, _ := syncedEBV(t, f, append(r.opts, WithVerificationCache(vcache.New(0)))...)
			if n := v.Cache().Len(); n != 0 {
				t.Fatalf("chain replay inserted %d cache entries, want 0", n)
			}
			bd, err := r.connect(v, f.lastEBV)
			if err != nil {
				t.Fatal(err)
			}
			if n := v.Cache().Len(); n != 0 {
				t.Fatalf("connecting the last block inserted %d cache entries, want 0", n)
			}
			if bd.Inputs == 0 || bd.CacheMisses != bd.Inputs || bd.CacheHits != 0 {
				t.Fatalf("cold connect must miss on every input: hits=%d misses=%d inputs=%d",
					bd.CacheHits, bd.CacheMisses, bd.Inputs)
			}
		})
	}
}

// TestCommitRetiresCacheKeys pins the other half of the write rule: a
// successful commit removes the keys its inputs hit, and only a
// successful one. On every connect route, with the last block's
// transactions admitted through the mempool path, a variant of that
// block with an inflated coinbase hits on every input and fails the
// subsidy rule, leaving the cache as it was; the honest block then
// hits on every input and leaves the cache empty. Disconnecting it and
// connecting it again misses on every input and lands on the
// reference state.
func TestCommitRetiresCacheKeys(t *testing.T) {
	f := newFixture(t, 150)
	inflated := reencode(t, f.lastEBV)
	inflated.Txs[0].Tidy.Outputs[0].Value++
	rebuild(t, inflated)
	ref := refFixture(t, f)
	if err := ref.connect(f.lastEBV); err != nil {
		t.Fatalf("reference honest block: %v", err)
	}
	inputs := f.lastEBV.TotalInputs()
	if inputs == 0 {
		t.Skip("last block spends nothing")
	}
	for _, r := range connectRoutes() {
		t.Run(r.name, func(t *testing.T) {
			v, status := syncedEBV(t, f, append(r.opts, WithVerificationCache(vcache.New(0)))...)
			v.SetBlockOutputsFunc(func(h uint64) int { return f.ebv[h].TotalOutputs() })
			warmFromMempool(t, v, f.lastEBV)
			if n := v.Cache().Len(); n != inputs {
				t.Fatalf("admission cached %d keys for %d inputs", n, inputs)
			}

			bd, err := r.connect(v, inflated)
			if !errors.Is(err, ErrBadSubsidy) {
				t.Fatalf("inflated coinbase: got %v, want %v", err, ErrBadSubsidy)
			}
			if bd.CacheHits != inputs {
				t.Fatalf("failing block hit %d of %d inputs", bd.CacheHits, inputs)
			}
			if n := v.Cache().Len(); n != inputs {
				t.Fatalf("a failed block left %d of %d keys", n, inputs)
			}

			bd, err = r.connect(v, f.lastEBV)
			if err != nil {
				t.Fatal(err)
			}
			if bd.CacheHits != inputs || bd.CacheMisses != 0 {
				t.Fatalf("warmed block must hit on every input: hits=%d misses=%d inputs=%d",
					bd.CacheHits, bd.CacheMisses, inputs)
			}
			if n := v.Cache().Len(); n != 0 {
				t.Fatalf("commit left %d retired keys in the cache", n)
			}

			chain := v.headers.(*chainstore.Store)
			if err := chain.Append(f.lastEBV.Header, f.lastEBV.Encode(nil)); err != nil {
				t.Fatal(err)
			}
			if err := v.DisconnectBlock(f.lastEBV); err != nil {
				t.Fatal(err)
			}
			if err := chain.Truncate(int(f.lastEBV.Header.Height)); err != nil {
				t.Fatal(err)
			}
			bd, err = r.connect(v, f.lastEBV)
			if err != nil {
				t.Fatalf("reconnect: %v", err)
			}
			if bd.CacheMisses != inputs || bd.CacheHits != 0 {
				t.Fatalf("reconnect must miss on every input: hits=%d misses=%d inputs=%d",
					bd.CacheHits, bd.CacheMisses, inputs)
			}
			if n := v.Cache().Len(); n != 0 {
				t.Fatalf("reconnect left %d keys in the cache", n)
			}
			sameState(t, "reconnected", ref.status, status)
		})
	}
}

// TestCachePoisoningRejectedIdentically is the cache-poisoning
// adversarial suite: after the cache has been warmed with the honest
// last block's transactions through the mempool path, every
// adversarial mutation (signature, ELs/stake position, Merkle branch,
// height, double/spent spends, crafted immature spend …) must miss the
// cache and be rejected with error text identical to the reference
// model's, at one worker and at four. The honest block must then
// connect with a full-hit cache to the reference's exact state.
func TestCachePoisoningRejectedIdentically(t *testing.T) {
	f := newFixture(t, 150)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := refFixture(t, f)
			cached, cachedStatus := syncedEBV(t, f,
				WithParallelValidation(workers), WithVerificationCache(vcache.New(0)))
			warmFromMempool(t, cached, f.lastEBV)

			for _, c := range adversarialCases() {
				blk := c.make(t, f)
				if blk == nil {
					t.Logf("case %s: no usable spends, skipped", c.name)
					continue
				}
				errRef := ref.connect(blk)
				_, errCached := cached.ConnectBlock(blk)
				if errRef == nil {
					t.Fatalf("case %s: reference accepted the block", c.name)
				}
				sameVerdict(t, "case "+c.name, errRef, errCached)
			}

			// The honest block connects on both, the cached validator
			// entirely from warm entries, to identical state.
			if err := ref.connect(f.lastEBV); err != nil {
				t.Fatalf("reference honest block: %v", err)
			}
			bdCached, err := cached.ConnectBlock(f.lastEBV)
			if err != nil {
				t.Fatalf("cached honest block: %v", err)
			}
			if bdCached.CacheHits != bdCached.Inputs || bdCached.CacheMisses != 0 {
				t.Fatalf("warmed block must hit on every input: hits=%d misses=%d inputs=%d",
					bdCached.CacheHits, bdCached.CacheMisses, bdCached.Inputs)
			}
			if bdCached.Inputs != f.lastEBV.TotalInputs() || bdCached.Outputs != f.lastEBV.TotalOutputs() {
				t.Fatalf("breakdown shape: %+v", bdCached)
			}
			sameState(t, "honest block", ref.status, cachedStatus)
		})
	}
}

// TestCacheMemoEquivalenceMatrix extends the equivalence suite across
// cache states {cold, mempool-warmed}, with the memoized digests every
// decoded transaction carries: the cached validator at one worker and
// at four must accept/reject exactly the blocks the reference model
// does, with identical error text and identical honest-block state, in
// every cell.
func TestCacheMemoEquivalenceMatrix(t *testing.T) {
	f := newFixture(t, 150)
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("memo=true/warm=%v", warm), func(t *testing.T) {
			ref := refFixture(t, f)
			seqC, seqStatus := syncedEBV(t, f, WithVerificationCache(vcache.New(0)))
			parC, parStatus := syncedEBV(t, f,
				WithParallelValidation(4), WithVerificationCache(vcache.New(0)))
			if warm {
				warmFromMempool(t, seqC, f.lastEBV)
				warmFromMempool(t, parC, f.lastEBV)
			}

			for _, c := range adversarialCases() {
				blk := c.make(t, f)
				if blk == nil {
					continue
				}
				errRef := ref.connect(blk)
				_, errSeq := seqC.ConnectBlock(blk)
				_, errPar := parC.ConnectBlock(blk)
				if errRef == nil {
					t.Fatalf("case %s: reference accepted the block", c.name)
				}
				sameVerdict(t, "workers=1 case "+c.name, errRef, errSeq)
				sameVerdict(t, "workers=4 case "+c.name, errRef, errPar)
			}

			if err := ref.connect(f.lastEBV); err != nil {
				t.Fatalf("reference honest block: %v", err)
			}
			bdSeq, err := seqC.ConnectBlock(f.lastEBV)
			if err != nil {
				t.Fatalf("cached workers=1 honest block: %v", err)
			}
			bdPar, err := parC.ConnectBlock(f.lastEBV)
			if err != nil {
				t.Fatalf("cached workers=4 honest block: %v", err)
			}
			for name, bd := range map[string]*Breakdown{"workers=1": bdSeq, "workers=4": bdPar} {
				// Every input is probed exactly once; warmed runs hit on
				// all of them.
				if bd.CacheHits+bd.CacheMisses != bd.Inputs {
					t.Fatalf("%s: probes %d+%d != inputs %d", name, bd.CacheHits, bd.CacheMisses, bd.Inputs)
				}
				if warm && (bd.CacheHits != bd.Inputs || bd.CacheMisses != 0) {
					t.Fatalf("%s: warmed block must hit on every input: %+v", name, bd)
				}
			}
			if bdSeq.Inputs != f.lastEBV.TotalInputs() || bdPar.Inputs != f.lastEBV.TotalInputs() {
				t.Fatalf("input counts differ: %d/%d, want %d", bdSeq.Inputs, bdPar.Inputs, f.lastEBV.TotalInputs())
			}
			sameState(t, "workers=1", ref.status, seqStatus)
			sameState(t, "workers=4", ref.status, parStatus)
		})
	}
}

// BenchmarkEBVValidateTxsBatch measures batch admission of the last
// block's transactions (EV+UV+SV for every input, one batched probe,
// one worker, a reused scratch), uncached and against a warm
// verified-proof cache (the relay steady state), in time per input.
func BenchmarkEBVValidateTxsBatch(b *testing.B) {
	f := newFixture(b, 120)
	blk := reencode(b, f.lastEBV)
	txs := blk.Txs[1:]
	inputs := blk.TotalInputs()
	if inputs == 0 {
		b.Skip("no spends in last block")
	}
	run := func(b *testing.B, v *EBVValidator) {
		s := ingest.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, err := range v.ValidateTxsBatch(txs, 1, s) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inputs), "ns/input")
	}
	b.Run("uncached", func(b *testing.B) {
		v, _ := syncedEBV(b, f)
		run(b, v)
	})
	b.Run("warm-cache", func(b *testing.B) {
		v, _ := syncedEBV(b, f, WithVerificationCache(vcache.New(0)))
		warmFromMempool(b, v, f.lastEBV)
		run(b, v)
	})
}

// BenchmarkEBVDecodeValidateBlock measures the full decode→validate
// path for one block (wire bytes through ValidateTx for every
// transaction), cold vs warm cache, reporting allocations and
// per-input time.
func BenchmarkEBVDecodeValidateBlock(b *testing.B) {
	f := newFixture(b, 120)
	raw := f.lastEBV.Encode(nil)
	inputs := f.lastEBV.TotalInputs()
	if inputs == 0 {
		b.Skip("no spends in last block")
	}

	run := func(b *testing.B, v *EBVValidator) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk, err := blockmodel.DecodeEBVBlock(raw)
			if err != nil {
				b.Fatal(err)
			}
			for j, tx := range blk.Txs {
				if j == 0 {
					continue
				}
				if err := v.ValidateTx(tx); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inputs), "ns/input")
	}
	b.Run("cold", func(b *testing.B) {
		v, _ := syncedEBV(b, f)
		run(b, v)
	})
	b.Run("warm-cache", func(b *testing.B) {
		v, _ := syncedEBV(b, f, WithVerificationCache(vcache.New(0)))
		warmFromMempool(b, v, f.lastEBV)
		run(b, v)
	})
}
