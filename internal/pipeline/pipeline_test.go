package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/core"
	"ebv/internal/merkle"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// pipeFixture is a generated EBV chain plus its generator (for
// re-signing crafted spends).
type pipeFixture struct {
	gen    *workload.Generator
	blocks []*blockmodel.EBVBlock
}

func newPipeFixture(t testing.TB, n int) *pipeFixture {
	t.Helper()
	f := &pipeFixture{gen: workload.NewGenerator(workload.TestParams(n))}
	im, err := proof.NewIntermediary(t.TempDir(), f.gen.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	for !f.gen.Done() {
		cb, err := f.gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := im.ProcessBlock(cb)
		if err != nil {
			t.Fatal(err)
		}
		f.blocks = append(f.blocks, eb)
	}
	return f
}

// dest is one fresh validating node end: chain store, status set, and
// validator.
type dest struct {
	chain  *chainstore.Store
	status *statusdb.DB
	v      *core.EBVValidator
}

func newDest(t testing.TB, f *pipeFixture) *dest {
	t.Helper()
	chain, err := chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chain.Close() })
	status := statusdb.New()
	return &dest{
		chain:  chain,
		status: status,
		v:      core.NewEBVValidator(status, script.NewEngine(f.gen.Scheme()), chain),
	}
}

// replaySequential is the reference: one-block-at-a-time ConnectBlock
// + Append over raw, stopping at the first error exactly like
// sequential IBD.
func replaySequential(t testing.TB, d *dest, raw [][]byte) (failHeight uint64, err error) {
	t.Helper()
	for h, enc := range raw {
		blk, derr := blockmodel.DecodeEBVBlock(enc)
		if derr != nil {
			return uint64(h), derr
		}
		if _, cerr := d.v.ConnectBlock(blk); cerr != nil {
			return uint64(h), cerr
		}
		if aerr := d.chain.Append(blk.Header, blk.Encode(nil)); aerr != nil {
			return uint64(h), aerr
		}
	}
	return 0, nil
}

// sliceSource serves pre-encoded blocks from memory and records how
// far fetches run ahead of commits (backpressure evidence).
type sliceSource struct {
	raw [][]byte

	mu        sync.Mutex
	committed int64 // highest committed height, -1 before the first
	maxAhead  int64
}

func newSliceSource(raw [][]byte) *sliceSource {
	return &sliceSource{raw: raw, committed: -1}
}

func (s *sliceSource) TipHeight() (uint64, bool) {
	if len(s.raw) == 0 {
		return 0, false
	}
	return uint64(len(s.raw)) - 1, true
}

func (s *sliceSource) BlockBytes(h uint64) ([]byte, error) {
	if h >= uint64(len(s.raw)) {
		return nil, fmt.Errorf("sliceSource: no block %d", h)
	}
	s.mu.Lock()
	if ahead := int64(h) - s.committed; ahead > s.maxAhead {
		s.maxAhead = ahead
	}
	s.mu.Unlock()
	return s.raw[h], nil
}

func (s *sliceSource) commit(h uint64) {
	s.mu.Lock()
	s.committed = int64(h)
	s.mu.Unlock()
}

func encodeAll(blocks []*blockmodel.EBVBlock) [][]byte {
	raw := make([][]byte, len(blocks))
	for i, b := range blocks {
		raw[i] = b.Encode(nil)
	}
	return raw
}

func saveBytes(t testing.TB, db *statusdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencode deep-copies a block through its serialization so mutations
// cannot leak into the fixture.
func reencode(t testing.TB, b *blockmodel.EBVBlock) *blockmodel.EBVBlock {
	t.Helper()
	cp, err := blockmodel.DecodeEBVBlock(b.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// rebuild refreshes a mutated block's Merkle commitment.
func rebuild(t testing.TB, blk *blockmodel.EBVBlock) {
	t.Helper()
	rebuilt, err := blockmodel.AssembleEBV(blk.Header.PrevBlock, blk.Header.Height, blk.Header.TimeStamp, blk.Txs)
	if err != nil {
		t.Fatal(err)
	}
	blk.Header = rebuilt.Header
}

// mutation produces one adversarial variant of the block at index i of
// the fixture chain; nil means no usable target at this seed. The
// cases mirror internal/core's adversarial corpus: every rejection
// layer the pipeline must report identically to sequential replay —
// structure (stage A), proof/script verdicts (stage A worker, surfaced
// by the stage B reduce), and live-state checks (stage B).
type mutation struct {
	name string
	make func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock
}

func adversarialCases() []mutation {
	mutateFirstBody := func(t *testing.T, f *pipeFixture, i int, mutate func(tx *txmodel.EBVTx) bool) *blockmodel.EBVBlock {
		blk := reencode(t, f.blocks[i])
		for _, tx := range blk.Txs {
			if len(tx.Bodies) > 0 && mutate(tx) {
				tx.SealInputHashes()
				rebuild(t, blk)
				return blk
			}
		}
		return nil
	}
	return []mutation{
		{"fake-position", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			return mutateFirstBody(t, f, i, func(tx *txmodel.EBVTx) bool {
				tx.Bodies[0].PrevTx.StakePos += 3
				return true
			})
		}},
		{"tampered-branch", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			return mutateFirstBody(t, f, i, func(tx *txmodel.EBVTx) bool {
				if len(tx.Bodies[0].Branch.Siblings) == 0 {
					return false
				}
				tx.Bodies[0].Branch.Siblings[0][0] ^= 1
				return true
			})
		}},
		{"body-hash-mismatch", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			blk := reencode(t, f.blocks[i])
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					tx.Bodies[0].Height++ // not resealed: consistency must fail
					return blk
				}
			}
			return nil
		}},
		{"bad-signature", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			return mutateFirstBody(t, f, i, func(tx *txmodel.EBVTx) bool {
				if len(tx.Bodies[0].UnlockScript) <= 10 {
					return false
				}
				tx.Bodies[0].UnlockScript[5] ^= 1
				return true
			})
		}},
		{"double-spend", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			blk := reencode(t, f.blocks[i])
			var donor *txmodel.InputBody
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					donor = &tx.Bodies[0]
					break
				}
			}
			if donor == nil {
				return nil
			}
			for _, tx := range blk.Txs[1:] {
				if len(tx.Bodies) > 0 && &tx.Bodies[0] != donor {
					tx.Bodies[0] = *donor
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"spent-output", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			older := f.blocks[i-1]
			var spent *txmodel.InputBody
			for _, tx := range older.Txs {
				if len(tx.Bodies) > 0 {
					spent = &tx.Bodies[0]
					break
				}
			}
			if spent == nil {
				return nil
			}
			blk := reencode(t, f.blocks[i])
			for _, tx := range blk.Txs {
				if len(tx.Bodies) > 0 {
					tx.Bodies[0] = *spent
					tx.SealInputHashes()
					rebuild(t, blk)
					return blk
				}
			}
			return nil
		}},
		{"extra-coinbase", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			blk := reencode(t, f.blocks[i])
			if len(blk.Txs) < 2 {
				return nil
			}
			blk.Txs[1].Tidy.InputHashes = nil
			blk.Txs[1].Bodies = nil
			blk.Header.MerkleRoot = merkle.Root(blk.TxLeaves())
			return blk
		}},
		{"inflated-coinbase", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			blk := reencode(t, f.blocks[i])
			blk.Txs[0].Tidy.Outputs[0].Value += 1
			rebuild(t, blk)
			return blk
		}},
		{"wrong-merkle-root", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			blk := reencode(t, f.blocks[i])
			blk.Header.MerkleRoot[0] ^= 1
			return blk
		}},
		{"bad-link", func(t *testing.T, f *pipeFixture, i int) *blockmodel.EBVBlock {
			blk := reencode(t, f.blocks[i])
			blk.Header.PrevBlock[0] ^= 1
			return blk
		}},
	}
}

// TestPipelinedMatchesSequentialOnValidChain: the whole fixture chain
// through the pipeline at several depth x worker shapes must land on
// state byte-identical to sequential replay, with Progress reporting
// every height in order.
func TestPipelinedMatchesSequentialOnValidChain(t *testing.T) {
	f := newPipeFixture(t, 120)
	raw := encodeAll(f.blocks)

	ref := newDest(t, f)
	if _, err := replaySequential(t, ref, raw); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	want := saveBytes(t, ref.status)
	wantTip := ref.chain.TipHash()

	for _, tc := range []struct{ depth, workers int }{
		{1, 1}, {2, 4}, {4, 1}, {8, 4},
	} {
		t.Run(fmt.Sprintf("depth=%d,workers=%d", tc.depth, tc.workers), func(t *testing.T) {
			d := newDest(t, f)
			src := newSliceSource(raw)
			var heights []uint64
			var total core.Breakdown
			err := Run(src, d.chain, d.v, 0, Config{
				Depth: tc.depth, Workers: tc.workers,
				Progress: func(b *blockmodel.EBVBlock, bd *core.Breakdown) {
					heights = append(heights, b.Header.Height)
					total.Add(bd)
					src.commit(b.Header.Height)
				},
			})
			if err != nil {
				t.Fatalf("pipelined run: %v", err)
			}
			if len(heights) != len(raw) {
				t.Fatalf("progress for %d blocks, want %d", len(heights), len(raw))
			}
			for i, h := range heights {
				if h != uint64(i) {
					t.Fatalf("out-of-order progress: got height %d at index %d", h, i)
				}
			}
			if got := saveBytes(t, d.status); !bytes.Equal(got, want) {
				t.Fatal("pipelined status snapshot differs from sequential replay")
			}
			if tip := d.chain.TipHash(); tip != wantTip {
				t.Fatalf("chain tip %x, want %x", tip, wantTip)
			}
			if total.Inputs == 0 || total.Txs == 0 {
				t.Fatalf("breakdown totals not accumulated: %+v", total)
			}
			// Backpressure: fetches never run further ahead of commits
			// than the channel (depth) + one block in each stage.
			if src.maxAhead > int64(tc.depth)+2 {
				t.Fatalf("lookahead %d exceeds depth %d + 2", src.maxAhead, tc.depth)
			}
		})
	}
}

// TestPipelineAdversarialEquivalence: every adversarial mutation of
// the chain's last block must fail the pipelined run with exactly the
// sequential error, at every tested shape, leaving state at the last
// good tip.
func TestPipelineAdversarialEquivalence(t *testing.T) {
	f := newPipeFixture(t, 120)
	last := len(f.blocks) - 1

	for _, c := range adversarialCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			blk := c.make(t, f, last)
			if blk == nil {
				t.Skip("no usable spends at this seed")
			}
			raw := encodeAll(f.blocks)
			raw[last] = blk.Encode(nil)

			ref := newDest(t, f)
			failH, seqErr := replaySequential(t, ref, raw)
			if seqErr == nil {
				t.Fatal("sequential replay accepted the mutated block")
			}
			if failH != uint64(last) {
				t.Fatalf("sequential replay failed at %d, want %d", failH, last)
			}
			want := saveBytes(t, ref.status)

			for _, tc := range []struct{ depth, workers int }{{2, 1}, {4, 4}} {
				d := newDest(t, f)
				err := Run(newSliceSource(raw), d.chain, d.v, 0, Config{Depth: tc.depth, Workers: tc.workers})
				var be *BlockError
				if !errors.As(err, &be) {
					t.Fatalf("depth=%d workers=%d: want *BlockError, got %v", tc.depth, tc.workers, err)
				}
				if be.Height != uint64(last) {
					t.Fatalf("depth=%d workers=%d: failed at height %d, want %d", tc.depth, tc.workers, be.Height, last)
				}
				if be.Err.Error() != seqErr.Error() {
					t.Fatalf("depth=%d workers=%d: error divergence:\n  sequential: %v\n  pipelined:  %v",
						tc.depth, tc.workers, seqErr, be.Err)
				}
				if got := saveBytes(t, d.status); !bytes.Equal(got, want) {
					t.Fatal("rejected run's status differs from sequential replay's")
				}
				if d.chain.Count() != last {
					t.Fatalf("chain holds %d blocks after rejection, want %d", d.chain.Count(), last)
				}
			}
		})
	}
}

// TestPipelineMidStreamInvalidBlock is the tentpole failure case: an
// invalid block in the middle of the stream, with valid blocks already
// preverified (speculatively) behind it. The pipeline must report the
// sequential error at the failing height and leave the status database
// and chain exactly at the last good tip — the speculative work for
// later heights is discarded without touching anything.
func TestPipelineMidStreamInvalidBlock(t *testing.T) {
	f := newPipeFixture(t, 120)
	mid := len(f.blocks) / 2

	blk := adversarialCases()[3].make(t, f, mid) // bad-signature: survives stage A, dies in stage B
	if blk == nil {
		blk = adversarialCases()[8].make(t, f, mid) // fall back to wrong-merkle-root (stage A)
	}
	raw := encodeAll(f.blocks)
	raw[mid] = blk.Encode(nil)

	ref := newDest(t, f)
	failH, seqErr := replaySequential(t, ref, raw)
	if seqErr == nil || failH != uint64(mid) {
		t.Fatalf("sequential replay: err=%v at %d, want failure at %d", seqErr, failH, mid)
	}
	want := saveBytes(t, ref.status)
	wantTip := ref.chain.TipHash()

	for _, depth := range []int{1, 2, 4, 8} {
		d := newDest(t, f)
		var heights []uint64
		err := Run(newSliceSource(raw), d.chain, d.v, 0, Config{
			Depth: depth, Workers: 4,
			Progress: func(b *blockmodel.EBVBlock, bd *core.Breakdown) { heights = append(heights, b.Header.Height) },
		})
		var be *BlockError
		if !errors.As(err, &be) {
			t.Fatalf("depth=%d: want *BlockError, got %v", depth, err)
		}
		if be.Height != uint64(mid) {
			t.Fatalf("depth=%d: failed at %d, want %d", depth, be.Height, mid)
		}
		if be.Err.Error() != seqErr.Error() {
			t.Fatalf("depth=%d: error divergence:\n  sequential: %v\n  pipelined:  %v", depth, seqErr, be.Err)
		}
		if be.Breakdown == nil {
			t.Fatalf("depth=%d: BlockError must carry the failing block's partial work", depth)
		}
		if len(heights) != mid {
			t.Fatalf("depth=%d: progress for %d blocks, want %d", depth, len(heights), mid)
		}
		if tip, ok := d.status.Tip(); !ok || tip != uint64(mid-1) {
			t.Fatalf("depth=%d: status tip %d,%v, want %d", depth, tip, ok, mid-1)
		}
		if got := saveBytes(t, d.status); !bytes.Equal(got, want) {
			t.Fatalf("depth=%d: status vectors touched past the last good height", depth)
		}
		if tip := d.chain.TipHash(); tip != wantTip || d.chain.Count() != mid {
			t.Fatalf("depth=%d: chain diverged (count %d, want %d)", depth, d.chain.Count(), mid)
		}
	}
}

// TestPipelineDecodeErrorMidStream: a block that fails to decode stops
// the run at its height after all predecessors committed.
func TestPipelineDecodeErrorMidStream(t *testing.T) {
	f := newPipeFixture(t, 60)
	mid := len(f.blocks) / 2
	raw := encodeAll(f.blocks)
	raw[mid] = []byte{0xff, 0x00, 0x13}

	d := newDest(t, f)
	err := Run(newSliceSource(raw), d.chain, d.v, 0, Config{Depth: 4, Workers: 2})
	var be *BlockError
	if !errors.As(err, &be) {
		t.Fatalf("want *BlockError, got %v", err)
	}
	if be.Height != uint64(mid) || be.Fetch {
		t.Fatalf("got height %d fetch=%v, want %d fetch=false", be.Height, be.Fetch, mid)
	}
	if tip, ok := d.status.Tip(); !ok || tip != uint64(mid-1) {
		t.Fatalf("status tip %d,%v, want %d", tip, ok, mid-1)
	}
}

// TestPipelineResumesFromExistingTip: a run starting mid-chain (the
// fast-sync catch-up shape) validates only the remainder.
func TestPipelineResumesFromExistingTip(t *testing.T) {
	f := newPipeFixture(t, 80)
	raw := encodeAll(f.blocks)
	half := len(raw) / 2

	d := newDest(t, f)
	if _, err := replaySequential(t, d, raw[:half]); err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
	if err := Run(newSliceSource(raw), d.chain, d.v, uint64(half), Config{Depth: 4, Workers: 2}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	ref := newDest(t, f)
	if _, err := replaySequential(t, ref, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, d.status), saveBytes(t, ref.status)) {
		t.Fatal("resumed pipeline diverged from full sequential replay")
	}

	// Already at tip: a further run is a no-op.
	if err := Run(newSliceSource(raw), d.chain, d.v, uint64(len(raw)), Config{Depth: 2}); err != nil {
		t.Fatalf("at-tip run: %v", err)
	}
}

// benchIBD replays the fixture chain into a fresh dest per iteration:
// b.N x full IBD, sequential vs per-block-parallel vs cross-block
// pipelined.
func benchIBD(b *testing.B, workers, depth int) {
	f := newPipeFixture(b, 120)
	raw := encodeAll(f.blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newDest(b, f)
		b.StartTimer()
		if depth > 0 {
			if err := Run(newSliceSource(raw), d.chain, d.v, 0, Config{Depth: depth, Workers: workers}); err != nil {
				b.Fatal(err)
			}
			continue
		}
		var v *core.EBVValidator
		if workers > 1 {
			v = core.NewEBVValidator(d.status, script.NewEngine(f.gen.Scheme()), d.chain, core.WithParallelValidation(workers))
		} else {
			v = d.v
		}
		for _, enc := range raw {
			blk, err := blockmodel.DecodeEBVBlock(enc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := v.ConnectBlock(blk); err != nil {
				b.Fatal(err)
			}
			if err := d.chain.Append(blk.Header, blk.Encode(nil)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIBDSequential(b *testing.B) { benchIBD(b, 1, 0) }

func BenchmarkIBDPerBlockParallel(b *testing.B) { benchIBD(b, 4, 0) }

func BenchmarkIBDPipelined(b *testing.B) { benchIBD(b, 4, 4) }
