package relay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/proof"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// buildChain renders a small EBV chain for reconstruction tests. The
// workload maps block heights onto mainnet's transaction-count curve,
// so short chains are coinbase-only: tests that need multi-transaction
// blocks must ask for ~250 blocks.
func buildChain(t testing.TB, blocks int) *chainstore.Store {
	t.Helper()
	g := workload.NewGenerator(workload.TestParams(blocks))
	im, err := proof.NewIntermediary(t.TempDir(), g.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	for !g.Done() {
		cb, err := g.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := im.ProcessBlock(cb); err != nil {
			t.Fatal(err)
		}
	}
	return im.Chain()
}

// mapSource is a TxSource over a fixed set of pool-form encodings.
type mapSource struct {
	m      map[hashx.Hash][]byte
	leaves []hashx.Hash
}

func (s *mapSource) LookupByLeaf(leaf hashx.Hash) ([]byte, bool) {
	raw, ok := s.m[leaf]
	return raw, ok
}

func (s *mapSource) LeafHashes() []hashx.Hash { return s.leaves }

// poolForm converts a block transaction to the shape a mempool holds:
// StakePos zero, memo reset.
func poolForm(tx *txmodel.EBVTx) *txmodel.EBVTx {
	cp := *tx
	cp.Tidy.StakePos = 0
	cp.Tidy.Invalidate()
	return &cp
}

// sourceFor builds a mempool-like TxSource holding the block's
// non-coinbase transactions at indexes where keep returns true.
func sourceFor(t *testing.T, info *BlockInfo, keep func(i int) bool) *mapSource {
	t.Helper()
	src := &mapSource{m: map[hashx.Hash][]byte{}}
	for i := 1; i < info.TxCount(); i++ {
		if !keep(i) {
			continue
		}
		raw, err := info.TxBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			t.Fatal(err)
		}
		p := poolForm(tx)
		leaf := p.Tidy.LeafHash()
		src.m[leaf] = p.Encode(nil)
		src.leaves = append(src.leaves, leaf)
	}
	return src
}

// richBlock scans from the tip down for a block with at least minTxs
// transactions. A 250-block test chain always has one, so a miss is a
// harness regression, not a skip.
func richBlock(t *testing.T, chain *chainstore.Store, minTxs int) ([]byte, *BlockInfo) {
	t.Helper()
	tip, _ := chain.TipHeight()
	for h := tip; ; h-- {
		raw, err := chain.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		info := indexBlock(t, raw)
		if info.TxCount() >= minTxs {
			return raw, info
		}
		if h == 0 {
			t.Fatalf("no block with >= %d txs in the test chain", minTxs)
		}
	}
}

// indexBlock decodes raw and indexes it for compact announcement.
func indexBlock(t *testing.T, raw []byte) *BlockInfo {
	t.Helper()
	blk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	return NewBlockInfo(raw, blk)
}

func TestShortID(t *testing.T) {
	a, b := hashx.Sum([]byte("a")), hashx.Sum([]byte("b"))
	if ShortID(1, a) != ShortID(1, a) {
		t.Fatal("short id must be deterministic")
	}
	if ShortID(1, a) == ShortID(2, a) {
		t.Fatal("short id must depend on the salt")
	}
	if ShortID(1, a) == ShortID(1, b) {
		t.Fatal("short id must depend on the leaf")
	}
}

func TestCompactCodecRoundTrip(t *testing.T) {
	chain := buildChain(t, 250)
	_, info := richBlock(t, chain, 3)
	c := info.Compact(0xABCD)
	got, err := DecodeCompact(c.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Hash() != c.Header.Hash() {
		t.Fatal("header mismatch")
	}
	if len(got.StakePos) != len(c.StakePos) || len(got.ShortIDs) != len(c.ShortIDs) {
		t.Fatalf("counts: %d/%d stake, %d/%d short",
			len(got.StakePos), len(c.StakePos), len(got.ShortIDs), len(c.ShortIDs))
	}
	for i := range c.StakePos {
		if got.StakePos[i] != c.StakePos[i] {
			t.Fatalf("stake position %d mismatch", i)
		}
	}
	for i := range c.ShortIDs {
		if got.ShortIDs[i] != c.ShortIDs[i] {
			t.Fatalf("short id %d mismatch", i)
		}
	}
	if len(got.Prefill) != 1 || got.Prefill[0].Index != 0 {
		t.Fatalf("coinbase must be the only prefill, got %d entries", len(got.Prefill))
	}
	if !bytes.Equal(got.Prefill[0].Raw, c.Prefill[0].Raw) {
		t.Fatal("prefilled coinbase bytes mismatch")
	}
}

func TestDecodeCompactMalformed(t *testing.T) {
	chain := buildChain(t, 250)
	_, info := richBlock(t, chain, 2)
	good := info.Compact(7).Encode(nil)
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      good[:40],
		"truncated tail":    good[:len(good)-3],
		"trailing junk":     append(append([]byte{}, good...), 0xFF),
		"short id misalign": append(append([]byte{}, good...), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := DecodeCompact(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestIndexCodec(t *testing.T) {
	idx := []int{0, 3, 4, 9}
	got, err := DecodeIndexes(EncodeIndexes(nil, idx))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(idx) {
		t.Fatalf("%d indexes, want %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("index %d: %d != %d", i, got[i], idx[i])
		}
	}
	if _, err := DecodeIndexes(EncodeIndexes(nil, []int{3, 3})); err == nil {
		t.Fatal("non-ascending indexes must not parse")
	}
	if _, err := DecodeIndexes(append(EncodeIndexes(nil, []int{1}), 0xEE)); err == nil {
		t.Fatal("trailing bytes must not parse")
	}
}

func TestTxnCodec(t *testing.T) {
	txs := [][]byte{[]byte("one"), []byte("two two")}
	got, err := DecodeTxns(EncodeTxns(nil, txs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], txs[0]) || !bytes.Equal(got[1], txs[1]) {
		t.Fatalf("roundtrip mismatch: %q", got)
	}
	empty, err := DecodeTxns(EncodeTxns(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty run: %v, %v", empty, err)
	}
	if _, err := DecodeTxns([]byte{1, 5, 'x'}); err == nil {
		t.Fatal("truncated txn must not parse")
	}
}

// TestCodecCountBoundedByInput: a body that claims the largest
// element count and carries no elements is refused before the decoder
// allocates room for the count — a few bytes from a peer must not buy
// megabytes of heap.
func TestCodecCountBoundedByInput(t *testing.T) {
	count := binary.AppendUvarint(nil, maxBlockTxs)
	compact := append(make([]byte, blockmodel.HeaderSize), count...)
	decoders := map[string]func() error{
		"compact":     func() error { _, err := DecodeCompact(compact); return err },
		"getblocktxn": func() error { _, err := DecodeIndexes(count); return err },
		"blocktxn":    func() error { _, err := DecodeTxns(count); return err },
	}
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count with no elements decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
			t.Errorf("%s: refusing an empty body that claims %d elements allocated %d B", name, maxBlockTxs, n)
		}
	}
}

// TestReconstructionEquivalence is the correctness gate: for every
// block of a generated chain, a receiver holding all the block's
// transactions in pool form must rebuild the original wire bytes
// exactly — byte-identical, so digests and validation verdicts cannot
// differ from the full-block path.
func TestReconstructionEquivalence(t *testing.T) {
	chain := buildChain(t, 250)
	tip, _ := chain.TipHeight()
	const salt = 0x5EED
	for h := uint64(0); h <= tip; h++ {
		raw, err := chain.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		info := indexBlock(t, raw)
		src := sourceFor(t, info, func(int) bool { return true })
		rec := NewReconstructor(info.Compact(salt), salt, src)
		if !rec.Complete() {
			t.Fatalf("block %d: %d slots missing with a full mempool", h, len(rec.Missing()))
		}
		got, err := rec.Assemble()
		if err != nil {
			t.Fatalf("block %d: assemble: %v", h, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("block %d: reconstruction differs from original (%d vs %d bytes)", h, len(got), len(raw))
		}
	}
}

// A half-warm mempool leaves exactly the absent transactions missing;
// filling them from the announcer's bytes completes an identical block.
func TestReconstructionPartialFill(t *testing.T) {
	chain := buildChain(t, 250)
	raw, info := richBlock(t, chain, 4)
	const salt = 99
	src := sourceFor(t, info, func(i int) bool { return i%2 == 0 })
	rec := NewReconstructor(info.Compact(salt), salt, src)
	missing := rec.Missing()
	if len(missing) == 0 {
		t.Fatal("odd slots must be missing")
	}
	for _, i := range missing {
		if i%2 == 0 {
			t.Fatalf("slot %d missing but its tx was pooled", i)
		}
		txRaw, err := info.TxBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Fill(i, txRaw); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Fill(0, []byte("dup")); err == nil {
		t.Fatal("double fill must be rejected")
	}
	got, err := rec.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("partial-fill reconstruction differs from original")
	}
}

// A duplicate leaf in the source makes its short id ambiguous: the
// reconstructor must treat the slot as missing (costing one fetch)
// rather than guess between the candidates.
func TestAmbiguousShortIDTreatedMissing(t *testing.T) {
	chain := buildChain(t, 250)
	raw, info := richBlock(t, chain, 2)
	const salt = 4
	src := sourceFor(t, info, func(int) bool { return true })
	src.leaves = append(src.leaves, src.leaves[0]) // duplicate → ambiguous
	rec := NewReconstructor(info.Compact(salt), salt, src)
	if rec.Complete() {
		t.Fatal("ambiguous slot must be left missing")
	}
	for _, i := range rec.Missing() {
		txRaw, err := info.TxBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Fill(i, txRaw); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rec.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("reconstruction differs after ambiguity fallback")
	}
}

// A poisoned mempool index — the right leaf resolving to the wrong
// transaction, which is what a crafted short-id collision produces —
// must surface as ErrMismatch from Assemble, never as a block that
// decodes to different contents.
func TestPoisonedSourceYieldsMismatch(t *testing.T) {
	chain := buildChain(t, 250)
	_, info := richBlock(t, chain, 3)
	const salt = 21
	src := sourceFor(t, info, func(int) bool { return true })
	// Swap the transactions behind two leaves: short-id matching now
	// reconstructs the wrong bytes into both slots.
	a, b := src.leaves[0], src.leaves[1]
	src.m[a], src.m[b] = src.m[b], src.m[a]
	rec := NewReconstructor(info.Compact(salt), salt, src)
	if !rec.Complete() {
		t.Fatal("poisoned source must still resolve every slot")
	}
	if _, err := rec.Assemble(); !errors.Is(err, ErrMismatch) {
		t.Fatalf("assemble error %v, want ErrMismatch", err)
	}
}

// Wrong bytes pushed through Fill (a malicious blocktxn answer) must
// also die in Assemble with ErrMismatch.
func TestWrongFillYieldsMismatch(t *testing.T) {
	chain := buildChain(t, 250)
	_, info := richBlock(t, chain, 2)
	const salt = 8
	rec := NewReconstructor(info.Compact(salt), salt, &mapSource{})
	missing := rec.Missing()
	// Answer every request with the same (wrong for all but one) tx.
	wrong, err := info.TxBytes(missing[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range missing {
		if err := rec.Fill(i, wrong); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rec.Assemble(); !errors.Is(err, ErrMismatch) {
		t.Fatalf("assemble error %v, want ErrMismatch", err)
	}
}
