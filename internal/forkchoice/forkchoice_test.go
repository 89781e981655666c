package forkchoice

import (
	"errors"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

// fakeChain is an in-memory Chain: blocks are bare headers, validation
// checks only linkage, and specific hashes can be poisoned to fail
// ConnectRaw (standing in for a body that fails full validation).
type fakeChain struct {
	blocks   []blockmodel.Header
	raws     [][]byte
	noBody   map[uint64]bool // header-only heights (fast-synced history)
	poison   map[hashx.Hash]bool
	connects int
}

func newFakeChain() *fakeChain {
	return &fakeChain{noBody: make(map[uint64]bool), poison: make(map[hashx.Hash]bool)}
}

func (c *fakeChain) TipHeight() (uint64, bool) {
	if len(c.blocks) == 0 {
		return 0, false
	}
	return uint64(len(c.blocks) - 1), true
}

func (c *fakeChain) TipHash() hashx.Hash {
	if len(c.blocks) == 0 {
		return hashx.ZeroHash
	}
	h := c.blocks[len(c.blocks)-1]
	return h.Hash()
}

func (c *fakeChain) Header(height uint64) (blockmodel.Header, bool) {
	if height >= uint64(len(c.blocks)) {
		return blockmodel.Header{}, false
	}
	return c.blocks[height], true
}

func (c *fakeChain) HeightByHash(h hashx.Hash) (uint64, bool) {
	for i := range c.blocks {
		if c.blocks[i].Hash() == h {
			return uint64(i), true
		}
	}
	return 0, false
}

func (c *fakeChain) HasBody(height uint64) bool { return !c.noBody[height] }

func (c *fakeChain) BlockBytes(height uint64) ([]byte, error) {
	if height >= uint64(len(c.raws)) {
		return nil, errors.New("fake: no such block")
	}
	if c.noBody[height] {
		return nil, errors.New("fake: no body")
	}
	return c.raws[height], nil
}

func (c *fakeChain) Locator() []hashx.Hash {
	var loc []hashx.Hash
	for i := len(c.blocks) - 1; i >= 0; i-- {
		loc = append(loc, c.blocks[i].Hash())
	}
	return loc
}

func (c *fakeChain) LocatorFork(loc []hashx.Hash) (uint64, bool) {
	for _, h := range loc {
		if height, ok := c.HeightByHash(h); ok {
			return height, true
		}
	}
	return 0, false
}

func (c *fakeChain) ConnectRaw(raw []byte) error {
	hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
	if err != nil {
		return err
	}
	if c.poison[hdr.Hash()] {
		return errors.New("fake: block fails validation")
	}
	if hdr.Height != uint64(len(c.blocks)) {
		return errors.New("fake: not a tip extension")
	}
	if hdr.PrevBlock != c.TipHash() {
		return errors.New("fake: parent mismatch")
	}
	c.blocks = append(c.blocks, hdr)
	c.raws = append(c.raws, raw)
	c.connects++
	return nil
}

func (c *fakeChain) DisconnectTip() ([]byte, error) {
	if len(c.blocks) == 0 {
		return nil, errors.New("fake: empty chain")
	}
	if c.noBody[uint64(len(c.blocks)-1)] {
		return nil, errors.New("fake: tip has no body")
	}
	raw := c.raws[len(c.raws)-1]
	c.blocks = c.blocks[:len(c.blocks)-1]
	c.raws = c.raws[:len(c.raws)-1]
	return raw, nil
}

// mkBlock builds a header-only block on the given parent. salt
// differentiates competing branches.
func mkBlock(parent hashx.Hash, height uint64, bits uint32, salt byte) []byte {
	hdr := blockmodel.Header{
		Version:   1,
		Height:    height,
		PrevBlock: parent,
		TimeStamp: 1_230_000_000 + height*600,
		Bits:      bits,
		Nonce:     uint64(salt),
	}
	hdr.MerkleRoot[0] = salt
	hdr.Mine()
	return hdr.Encode(nil)
}

// mkBranch extends parent with n blocks, returning the raw blocks.
func mkBranch(parent hashx.Hash, startHeight uint64, n int, bits uint32, salt byte) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		raw := mkBlock(parent, startHeight+uint64(i), bits, salt)
		hdr, _ := blockmodel.DecodeHeader(raw)
		parent = hdr.Hash()
		out = append(out, raw)
	}
	return out
}

func hashOf(raw []byte) hashx.Hash {
	hdr, _ := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
	return hdr.Hash()
}

func feed(t *testing.T, e *Engine, raws [][]byte, peer string) []Verdict {
	t.Helper()
	var vs []Verdict
	for _, raw := range raws {
		v, err := e.ProcessBlock(raw, peer)
		if err != nil {
			t.Fatalf("ProcessBlock: %v (verdict %s)", err, v)
		}
		vs = append(vs, v)
	}
	return vs
}

func TestTipExtensionAndDuplicates(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	blocks := mkBranch(hashx.ZeroHash, 0, 3, 0, 0)
	for _, raw := range blocks {
		if v, err := e.ProcessBlock(raw, "p"); err != nil || v != Connected {
			t.Fatalf("verdict %s err %v, want connected", v, err)
		}
	}
	if tip, _ := chain.TipHeight(); tip != 2 {
		t.Fatalf("tip %d, want 2", tip)
	}
	if v, err := e.ProcessBlock(blocks[1], "p"); err != nil || v != Duplicate {
		t.Fatalf("re-feed: verdict %s err %v, want duplicate", v, err)
	}
}

func TestReorgToLongerBranch(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	shared := mkBranch(hashx.ZeroHash, 0, 3, 0, 0) // heights 0..2
	feed(t, e, shared, "p")
	forkParent := hashOf(shared[1]) // fork at height 1

	branchA := mkBranch(hashOf(shared[2]), 3, 1, 0, 0xA) // A tip height 3, work 5
	feed(t, e, branchA, "a")
	aTip := chain.TipHash()

	// B forks at height 1 and grows to height 4: work 6 > 5.
	branchB := mkBranch(forkParent, 2, 3, 0, 0xB)
	vs := feed(t, e, branchB, "b")
	if vs[0] != SideStored || vs[1] != SideStored {
		t.Fatalf("early B verdicts %v, want side stores", vs[:2])
	}
	if vs[2] != Reorged {
		t.Fatalf("final B verdict %s, want reorged", vs[2])
	}
	if got, want := chain.TipHash(), hashOf(branchB[2]); got != want {
		t.Fatalf("tip %s, want B tip %s", got.Short(), want.Short())
	}
	if tip, _ := chain.TipHeight(); tip != 4 {
		t.Fatalf("tip height %d, want 4", tip)
	}
	st := e.Stats()
	if st.Reorgs != 1 || st.DeepestReorg != 2 {
		t.Fatalf("stats %+v, want 1 reorg of depth 2", st)
	}

	// The losing branch is re-indexed as a side branch: extending it
	// past B's work reorgs straight back.
	ext := mkBranch(aTip, 4, 2, 0, 0xA)
	vs = feed(t, e, ext, "a")
	if vs[len(vs)-1] != Reorged {
		t.Fatalf("A extension verdicts %v, want final reorg back", vs)
	}
	if got, want := chain.TipHash(), hashOf(ext[1]); got != want {
		t.Fatalf("tip %s, want extended A tip %s", got.Short(), want.Short())
	}
}

func TestHeavierShorterBranchWins(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	genesis := mkBranch(hashx.ZeroHash, 0, 1, 0, 0)
	feed(t, e, genesis, "p")
	// A: 4 light blocks (total work 5). B: 2 blocks at Bits=2 (work
	// 1 + 4 + 4 = 9) — shorter but heavier.
	branchA := mkBranch(hashOf(genesis[0]), 1, 4, 0, 0xA)
	feed(t, e, branchA, "a")
	branchB := mkBranch(hashOf(genesis[0]), 1, 2, 2, 0xB)
	vs := feed(t, e, branchB, "b")
	if vs[1] != Reorged {
		t.Fatalf("B verdicts %v, want reorg on second block", vs)
	}
	if tip, _ := chain.TipHeight(); tip != 2 {
		t.Fatalf("tip height %d, want 2 (shorter heavier branch)", tip)
	}
	if got, want := chain.TipHash(), hashOf(branchB[1]); got != want {
		t.Fatalf("tip %s, want B tip %s", got.Short(), want.Short())
	}
}

func TestEqualWorkKeepsFirstSeen(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	shared := mkBranch(hashx.ZeroHash, 0, 2, 0, 0)
	feed(t, e, shared, "p")
	tip := chain.TipHash()
	rival := mkBranch(hashOf(shared[0]), 1, 1, 0, 0xB) // same height, same work
	if vs := feed(t, e, rival, "b"); vs[0] != SideStored {
		t.Fatalf("equal-work rival verdict %s, want side stored", vs[0])
	}
	if chain.TipHash() != tip {
		t.Fatal("equal-work branch must not displace the first-seen tip")
	}
}

func TestFailedSwitchRollsBackAndMarksInvalid(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	shared := mkBranch(hashx.ZeroHash, 0, 3, 0, 0)
	feed(t, e, shared, "p")
	preTip := chain.TipHash()

	branchB := mkBranch(hashOf(shared[1]), 2, 3, 0, 0xB)
	chain.poison[hashOf(branchB[1])] = true // middle of the new branch fails

	feed(t, e, branchB[:1], "b")
	// Second B block: work still equal (2+2=4 vs 3+... shared work is 3;
	// B work after 2 blocks is 2+2=4 > 3) — triggers the switch, which
	// must fail on the poisoned block and roll back.
	v, err := e.ProcessBlock(branchB[1], "b")
	if err == nil || v != Rejected {
		t.Fatalf("poisoned switch: verdict %s err %v, want rejection", v, err)
	}
	if chain.TipHash() != preTip {
		t.Fatalf("tip %s after failed switch, want pre-reorg tip %s",
			chain.TipHash().Short(), preTip.Short())
	}
	if tip, _ := chain.TipHeight(); tip != 2 {
		t.Fatalf("tip height %d after rollback, want 2", tip)
	}

	// The losing branch is dead: the failed block and its descendants
	// are never retried.
	if v, err := e.ProcessBlock(branchB[1], "b"); !errors.Is(err, ErrKnownInvalid) || v != Rejected {
		t.Fatalf("re-feed poisoned: verdict %s err %v, want ErrKnownInvalid", v, err)
	}
	if v, err := e.ProcessBlock(branchB[2], "b"); !errors.Is(err, ErrKnownInvalid) || v != Rejected {
		t.Fatalf("feed child of poisoned: verdict %s err %v, want ErrKnownInvalid", v, err)
	}

	// A clean replacement branch from the same fork point still works:
	// invalidation was surgical, not a ban on the fork point.
	branchC := mkBranch(hashOf(shared[1]), 2, 3, 0, 0xC)
	vs := feed(t, e, branchC, "c")
	if vs[1] != Reorged {
		t.Fatalf("replacement branch verdicts %v, want reorg on second block", vs)
	}
	if got, want := chain.TipHash(), hashOf(branchC[2]); got != want {
		t.Fatalf("tip %s, want C tip %s", got.Short(), want.Short())
	}
	if st := e.Stats(); st.FailedReorgs != 1 || st.Reorgs != 1 {
		t.Fatalf("stats %+v, want 1 failed + 1 committed reorg", st)
	}
}

func TestOrphanAdoption(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	blocks := mkBranch(hashx.ZeroHash, 0, 4, 0, 0)
	// Deliver out of order: 2 and 3 before 0 and 1.
	if vs := feed(t, e, [][]byte{blocks[2], blocks[3]}, "p"); vs[0] != Orphaned || vs[1] != Orphaned {
		t.Fatalf("future blocks verdicts %v, want orphaned", vs)
	}
	feed(t, e, blocks[:1], "p")
	v, err := e.ProcessBlock(blocks[1], "p")
	if err != nil || v != Connected {
		t.Fatalf("gap fill: verdict %s err %v, want connected", v, err)
	}
	// Adoption pulled 2 and 3 in behind it.
	if tip, _ := chain.TipHeight(); tip != 3 {
		t.Fatalf("tip %d after adoption, want 3", tip)
	}
	if st := e.Stats(); st.Orphans != 0 || st.SideBlocks != 0 {
		t.Fatalf("stats %+v, want drained stores", st)
	}
}

func TestOrphanAdoptionTriggersReorg(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	shared := mkBranch(hashx.ZeroHash, 0, 3, 0, 0)
	feed(t, e, shared, "p")
	// Heavier branch B delivered children-first: all orphans, then the
	// branch root arrives and the whole line must connect via adoption.
	branchB := mkBranch(hashOf(shared[0]), 1, 4, 0, 0xB)
	if vs := feed(t, e, [][]byte{branchB[3], branchB[2], branchB[1]}, "b"); vs[0] != Orphaned {
		t.Fatalf("child-first verdicts %v, want orphans", vs)
	}
	v, err := e.ProcessBlock(branchB[0], "b")
	if err != nil {
		t.Fatalf("branch root: %v", err)
	}
	if v != Reorged {
		t.Fatalf("branch root verdict %s, want reorged (adoption moved the tip)", v)
	}
	if got, want := chain.TipHash(), hashOf(branchB[3]); got != want {
		t.Fatalf("tip %s, want B tip %s", got.Short(), want.Short())
	}
}

func TestReorgDepthCap(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{MaxReorgDepth: 2})
	shared := mkBranch(hashx.ZeroHash, 0, 1, 0, 0)
	feed(t, e, shared, "p")
	branchA := mkBranch(hashOf(shared[0]), 1, 3, 0, 0xA)
	feed(t, e, branchA, "a")
	branchB := mkBranch(hashOf(shared[0]), 1, 4, 0, 0xB) // would disconnect 3 > cap 2
	feed(t, e, branchB[:3], "b")
	v, err := e.ProcessBlock(branchB[3], "b")
	if !errors.Is(err, ErrReorgTooDeep) || v != Rejected {
		t.Fatalf("deep reorg: verdict %s err %v, want ErrReorgTooDeep", v, err)
	}
	if got, want := chain.TipHash(), hashOf(branchA[2]); got != want {
		t.Fatalf("tip %s moved, want %s", got.Short(), want.Short())
	}
}

func TestReorgPastHeaderOnlyHistoryRefused(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	blocks := mkBranch(hashx.ZeroHash, 0, 4, 0, 0)
	feed(t, e, blocks, "p")
	// Heights 0..2 become header-only, as on a fast-synced node whose
	// snapshot covered them.
	chain.noBody[0], chain.noBody[1], chain.noBody[2] = true, true, true

	// A heavier branch forking at height 1 needs to disconnect body-less
	// height 2: must be refused, and the chain left untouched.
	tip := chain.TipHash()
	branchB := mkBranch(hashOf(blocks[1]), 2, 4, 0, 0xB)
	feed(t, e, branchB[:2], "b")
	v, err := e.ProcessBlock(branchB[2], "b")
	if !errors.Is(err, ErrReorgPastSnapshot) || v != Rejected {
		t.Fatalf("snapshot reorg: verdict %s err %v, want ErrReorgPastSnapshot", v, err)
	}
	if chain.TipHash() != tip {
		t.Fatal("refused reorg must leave the chain untouched")
	}

	// A fork above the header-only region still reorgs fine.
	branchC := mkBranch(hashOf(blocks[2]), 3, 2, 0, 0xC)
	vs := feed(t, e, branchC, "c")
	if vs[1] != Reorged {
		t.Fatalf("shallow reorg verdicts %v, want reorg", vs)
	}
}

func TestPerPeerOrphanCap(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{MaxPeerOrphans: 2, MaxSideBlocks: 16})
	feed(t, e, mkBranch(hashx.ZeroHash, 0, 1, 0, 0), "p")

	var unknown hashx.Hash
	unknown[0] = 0xFF
	spam := mkBranch(unknown, 10, 3, 0, 0xA) // three orphans from one peer
	feed(t, e, spam, "flooder")
	other := mkBranch(unknown, 20, 1, 0, 0xB)
	feed(t, e, other, "honest")

	st := e.Stats()
	if st.Orphans != 3 { // flooder capped at 2, honest keeps 1
		t.Fatalf("orphans %d, want 3 (flooder capped at 2 + honest 1)", st.Orphans)
	}
	// The flooder's oldest orphan was the victim; the honest peer's
	// orphan survived.
	if e.store.has(hashOf(spam[0])) {
		t.Fatal("flooder's oldest orphan should have been evicted")
	}
	if !e.store.has(hashOf(other[0])) {
		t.Fatal("honest peer's orphan must survive a flooder")
	}
}

func TestInvalidPoWRejected(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	hdr := blockmodel.Header{Version: 1, Height: 0, Bits: 20} // unmined: 20 zero bits won't hold
	if hdr.MeetsTarget() {
		t.Skip("unmined header accidentally meets target")
	}
	raw := hdr.Encode(nil)
	if v, err := e.ProcessBlock(raw, "p"); err == nil || v != Rejected {
		t.Fatalf("bad PoW: verdict %s err %v, want rejection", v, err)
	}
}

func TestShortBlockRejected(t *testing.T) {
	e := New(newFakeChain(), Config{})
	if v, err := e.ProcessBlock([]byte{1, 2, 3}, "p"); err == nil || v != Rejected {
		t.Fatalf("short block: verdict %s err %v, want rejection", v, err)
	}
}

func TestExternalChainGrowthDetected(t *testing.T) {
	chain := newFakeChain()
	e := New(chain, Config{})
	blocks := mkBranch(hashx.ZeroHash, 0, 3, 0, 0)
	// Grow the chain behind the engine's back (IBD path).
	for _, raw := range blocks {
		if err := chain.ConnectRaw(raw); err != nil {
			t.Fatal(err)
		}
	}
	ext := mkBranch(hashOf(blocks[2]), 3, 1, 0, 0)
	if v, err := e.ProcessBlock(ext[0], "p"); err != nil || v != Connected {
		t.Fatalf("extend externally-grown chain: verdict %s err %v", v, err)
	}
	if tip, _ := chain.TipHeight(); tip != 3 {
		t.Fatalf("tip %d, want 3", tip)
	}
}
