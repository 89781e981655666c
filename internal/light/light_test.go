package light_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/light"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// buildChain renders a deterministic EBV chain of the given length.
func buildChain(t testing.TB, blocks int) *chainstore.Store {
	t.Helper()
	return buildChainWith(t, workload.NewGenerator(workload.TestParams(blocks)))
}

// buildChainWith renders g's whole EBV chain; g keeps the key material
// to sign spends of it.
func buildChainWith(t testing.TB, g *workload.Generator) *chainstore.Store {
	t.Helper()
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

// headerChainOf loads every stored header into a light HeaderChain.
func headerChainOf(t testing.TB, store *chainstore.Store) *light.HeaderChain {
	t.Helper()
	hc := light.NewHeaderChain()
	tip, ok := store.TipHeight()
	if !ok {
		t.Fatal("empty chain")
	}
	run := make([]blockmodel.Header, 0, tip+1)
	for h := uint64(0); h <= tip; h++ {
		hdr, ok := store.Header(h)
		if !ok {
			t.Fatalf("no header at %d", h)
		}
		run = append(run, hdr)
	}
	if n, err := hc.Connect(run); err != nil || n != len(run) {
		t.Fatalf("Connect: applied %d/%d, err %v", n, len(run), err)
	}
	return hc
}

func TestFilterRoundTrip(t *testing.T) {
	f := &light.Filter{
		Patterns:  [][]byte{{0xaa, 0xbb}, make([]byte, light.MaxPatternSize)},
		Outpoints: []light.Outpoint{{Height: 7, Pos: 3}, {Height: 1 << 40, Pos: 0xffffffff}},
	}
	got, err := light.DecodeFilter(f.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Patterns) != 2 || !bytes.Equal(got.Patterns[0], f.Patterns[0]) ||
		!bytes.Equal(got.Patterns[1], f.Patterns[1]) {
		t.Fatalf("patterns mismatch: %x", got.Patterns)
	}
	if len(got.Outpoints) != 2 || got.Outpoints[0] != f.Outpoints[0] || got.Outpoints[1] != f.Outpoints[1] {
		t.Fatalf("outpoints mismatch: %v", got.Outpoints)
	}
	// Empty filter round-trips too (headers-only subscription).
	if _, err := light.DecodeFilter((&light.Filter{}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestFilterBounds(t *testing.T) {
	over := &light.Filter{Patterns: make([][]byte, light.MaxPatterns+1)}
	for i := range over.Patterns {
		over.Patterns[i] = []byte{1}
	}
	if _, err := light.DecodeFilter(over.Encode(nil)); err == nil {
		t.Error("over-limit pattern count accepted")
	}
	wide := &light.Filter{Patterns: [][]byte{make([]byte, light.MaxPatternSize+1)}}
	if _, err := light.DecodeFilter(wide.Encode(nil)); err == nil {
		t.Error("over-limit pattern size accepted")
	}
	ops := &light.Filter{Outpoints: make([]light.Outpoint, light.MaxOutpoints+1)}
	if _, err := light.DecodeFilter(ops.Encode(nil)); err == nil {
		t.Error("over-limit outpoint count accepted")
	}
	if _, err := light.DecodeFilter(append((&light.Filter{}).Encode(nil), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := light.DecodeFilter(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestFilterMatchTx(t *testing.T) {
	key := sig.SimSig{}.KeyFromSeed([]byte("watch me"))
	addr := script.AddressOf(key.Public())
	tx := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Outputs: []txmodel.TxOut{{Value: 1, LockScript: script.StandardLock(key)}},
	}}
	watching := &light.Filter{Patterns: [][]byte{addr[:]}}
	if !watching.MatchTx(tx) {
		t.Error("address filter missed its own payment")
	}
	other := sig.SimSig{}.KeyFromSeed([]byte("someone else"))
	otherAddr := script.AddressOf(other.Public())
	if (&light.Filter{Patterns: [][]byte{otherAddr[:]}}).MatchTx(tx) {
		t.Error("filter matched an unrelated address")
	}
	spend := &txmodel.EBVTx{
		Tidy: txmodel.TidyTx{InputHashes: make([]hashx.Hash, 1)},
		Bodies: []txmodel.InputBody{{
			PrevTx:   txmodel.TidyTx{StakePos: 10, Outputs: []txmodel.TxOut{{Value: 1}, {Value: 2}}},
			Height:   55,
			RelIndex: 1,
		}},
	}
	if !(&light.Filter{Outpoints: []light.Outpoint{{Height: 55, Pos: 11}}}).MatchTx(spend) {
		t.Error("outpoint filter missed its spend")
	}
	if (&light.Filter{Outpoints: []light.Outpoint{{Height: 55, Pos: 10}}}).MatchTx(spend) {
		t.Error("outpoint filter matched the wrong position")
	}
}

func TestHeaderChainConnect(t *testing.T) {
	store := buildChain(t, 30)
	hc := headerChainOf(t, store)
	tip, ok := hc.TipHeight()
	if !ok || tip != 29 {
		t.Fatalf("tip %d ok %v, want 29", tip, ok)
	}
	want, _ := store.Header(29)
	if hc.TipHash() != want.Hash() {
		t.Fatal("tip hash mismatch")
	}
	if h, ok := hc.HeightOf(want.Hash()); !ok || h != 29 {
		t.Fatalf("HeightOf(tip) = %d, %v", h, ok)
	}
	if loc := hc.Locator(); len(loc) == 0 || loc[0] != want.Hash() {
		t.Fatalf("locator does not start at tip: %v", loc)
	}
	// Reconnecting the same run is a no-op, not an error.
	rerun := []blockmodel.Header{want}
	if n, err := hc.Connect(rerun); err != nil || n != 0 {
		t.Fatalf("duplicate connect: %d, %v", n, err)
	}
	// A header that skips ahead must be refused.
	gap := want
	gap.Height = 40
	if _, err := hc.Connect([]blockmodel.Header{gap}); err == nil {
		t.Error("disconnected header accepted")
	}
	// A header whose prev hash lies must be refused.
	bad, _ := store.Header(15)
	bad.Height = 30
	bad.PrevBlock = hashx.Sum([]byte("nope"))
	if _, err := hc.Connect([]blockmodel.Header{bad}); err == nil {
		t.Error("bad prev hash accepted")
	}
	// A branch ending below our tip must be refused (rollback guard).
	low, _ := store.Header(10)
	low.TimeStamp++ // different hash, same height
	if _, err := hc.Connect([]blockmodel.Header{low}); err == nil {
		t.Error("reorg to lower tip accepted")
	}
}

func TestVerifyBlock(t *testing.T) {
	// 120 blocks: past coinbase maturity, so late blocks carry real
	// spends with Merkle branches and unlocking scripts to verify.
	store := buildChain(t, 120)
	hc := headerChainOf(t, store)
	eng := script.NewEngine(sig.SimSig{})

	verified, withSpends := 0, 0
	for h := uint64(100); h <= 119; h++ {
		raw, err := store.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := light.VerifyBlock(hc, raw, eng)
		if err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
		verified++
		if b.TotalInputs() > 0 {
			withSpends++
		}
	}
	if verified != 20 || withSpends == 0 {
		t.Fatalf("verified %d blocks, %d with spends — want 20 with at least one spend", verified, withSpends)
	}

	// A block whose header is not on the chain must be refused.
	raw, _ := store.BlockBytes(110)
	short := headerChainOf(t, buildChain(t, 50))
	if _, err := light.VerifyBlock(short, raw, eng); !errors.Is(err, light.ErrUnknownHeader) {
		t.Fatalf("foreign block: %v", err)
	}

	// Tampering with the body must fail verification: the merkle root
	// no longer matches the anchored header.
	tampered := bytes.Clone(raw)
	tampered[len(tampered)-1] ^= 0x01
	if _, err := light.VerifyBlock(hc, tampered, eng); err == nil {
		t.Fatal("tampered block verified")
	}
}

// TestVerifyBlockRejectsSpendOfLaterOutput pins that a proof may only
// name a block below the one spending it. Block 110 is forged to spend
// block 111's coinbase — a genuine proof with a genuine signature —
// and 111 is re-assembled on top of it (its Merkle root is unchanged),
// so the header chain holds both. Against the client's whole header
// chain the proof would resolve, and the maturity check would wrap
// around; against the headers below 110 it names no header.
func TestVerifyBlockRejectsSpendOfLaterOutput(t *testing.T) {
	g := workload.NewGenerator(workload.TestParams(120))
	store := buildChainWith(t, g)
	decode := func(h uint64) *blockmodel.EBVBlock {
		raw, err := store.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b110, b111 := decode(110), decode(111)

	// The forged block keeps 110's coinbase, whose claim counts 110's
	// original fees, so the spend pays exactly those fees.
	claim, _ := b110.Txs[0].OutputSum()
	fees := claim - blockmodel.Subsidy(110)
	body, err := proof.NewBuilder(store, 0).Prove(proof.Loc{Height: 111, TxIndex: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := body.PrevTx.Outputs[0]
	if out.Value <= fees {
		t.Skipf("coinbase output %d cannot cover fees %d", out.Value, fees)
	}
	spend := &txmodel.EBVTx{
		Tidy:   txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{Value: out.Value - fees, LockScript: out.LockScript}}},
		Bodies: []txmodel.InputBody{body},
	}
	unlock, err := g.Resign(111, 0, 0, spend.SigHash())
	if err != nil {
		t.Fatal(err)
	}
	spend.Bodies[0].UnlockScript = unlock
	spend.SealInputHashes()

	forged, err := blockmodel.AssembleEBV(b110.Header.PrevBlock, 110, b110.Header.TimeStamp,
		[]*txmodel.EBVTx{b110.Txs[0], spend})
	if err != nil {
		t.Fatal(err)
	}
	forged.Header.Bits = b110.Header.Bits
	forged.Header.Mine()
	next := b111.Header
	next.PrevBlock = forged.Header.Hash()
	next.Mine()

	hc := light.NewHeaderChain()
	run := make([]blockmodel.Header, 0, 112)
	for h := uint64(0); h < 110; h++ {
		hdr, _ := store.Header(h)
		run = append(run, hdr)
	}
	run = append(run, forged.Header, next)
	if n, err := hc.Connect(run); err != nil || n != len(run) {
		t.Fatalf("Connect: applied %d/%d, err %v", n, len(run), err)
	}
	_, err = light.VerifyBlock(hc, forged.Encode(nil), script.NewEngine(sig.SimSig{}))
	if !errors.Is(err, light.ErrBadBlock) || !strings.Contains(err.Error(), "no header at height 111") {
		t.Fatalf("block spending a later block's output: got %v, want a missing header at 111", err)
	}
}
