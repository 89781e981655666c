package chainstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

func makeChain(t *testing.T, s *Store, n int) [][]byte {
	t.Helper()
	var blocks [][]byte
	prev := hashx.ZeroHash
	for i := 0; i < n; i++ {
		h := blockmodel.Header{
			Version: 1, Height: uint64(i), PrevBlock: prev,
			MerkleRoot: hashx.Sum([]byte(fmt.Sprintf("root-%d", i))),
			TimeStamp:  uint64(1000 + i),
		}
		body := bytes.Repeat([]byte{byte(i)}, 10+i)
		if err := s.Append(h, body); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		blocks = append(blocks, body)
		prev = h.Hash()
	}
	return blocks
}

func TestAppendAndRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := makeChain(t, s, 10)
	for i, want := range blocks {
		got, err := s.BlockBytes(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	if s.Count() != 10 {
		t.Fatalf("Count=%d", s.Count())
	}
	tip, ok := s.TipHeight()
	if !ok || tip != 9 {
		t.Fatalf("TipHeight=%d,%v", tip, ok)
	}
	h, ok := s.Header(5)
	if !ok || h.Height != 5 {
		t.Fatalf("Header(5)=%+v,%v", h, ok)
	}
	if _, err := s.BlockBytes(10); !errors.Is(err, ErrUnknownHeight) {
		t.Fatalf("out of range: %v", err)
	}
	if _, ok := s.Header(10); ok {
		t.Fatal("header out of range must be absent")
	}
}

func TestAppendRejectsBadLink(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	makeChain(t, s, 3)
	// Wrong height.
	h := blockmodel.Header{Height: 5, PrevBlock: s.TipHash()}
	if err := s.Append(h, []byte("x")); err == nil {
		t.Fatal("wrong height must fail")
	}
	// Wrong prev hash.
	h = blockmodel.Header{Height: 3, PrevBlock: hashx.Sum([]byte("bogus"))}
	if err := s.Append(h, []byte("x")); err == nil {
		t.Fatal("bad link must fail")
	}
}

func TestReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocks := makeChain(t, s, 20)
	tipHash := s.TipHash()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 20 {
		t.Fatalf("reopened Count=%d", s2.Count())
	}
	if s2.TipHash() != tipHash {
		t.Fatal("tip hash lost")
	}
	got, err := s2.BlockBytes(13)
	if err != nil || !bytes.Equal(got, blocks[13]) {
		t.Fatalf("block 13 lost: %v", err)
	}
	// Appending continues from the right height.
	h := blockmodel.Header{Height: 20, PrevBlock: tipHash, Version: 1}
	if err := s2.Append(h, []byte("new")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.TipHeight(); ok {
		t.Fatal("empty store must have no tip")
	}
	if s.TipHash() != hashx.ZeroHash {
		t.Fatal("empty tip hash must be zero (genesis prev)")
	}
}

func BenchmarkHeaderLookup(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	prev := hashx.ZeroHash
	for i := 0; i < 1000; i++ {
		h := blockmodel.Header{Height: uint64(i), PrevBlock: prev}
		s.Append(h, []byte("b"))
		prev = h.Hash()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Header(uint64(i % 1000))
	}
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	makeChain(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Index not a record multiple.
	idx := dir + "/index.dat"
	st, err := os.Stat(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(idx, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt index size must fail open")
	}
}

func TestOpenRejectsIndexHeightMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	makeChain(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwrite record 1's height field (little-endian at offset
	// recordSize*1 + 4).
	f, err := os.OpenFile(dir+"/index.dat", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{9}, indexRecordSize+4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("height mismatch must fail open")
	}
}

func TestAppendHeaderOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Headers 0..4 header-only (fast-synced history), then a real
	// block 5 appended on top — the post-snapshot handoff shape.
	prev := hashx.ZeroHash
	for i := 0; i < 5; i++ {
		h := blockmodel.Header{
			Version: 1, Height: uint64(i), PrevBlock: prev,
			MerkleRoot: hashx.Sum([]byte(fmt.Sprintf("root-%d", i))),
			TimeStamp:  uint64(1000 + i),
		}
		if err := s.AppendHeader(h); err != nil {
			t.Fatalf("append header %d: %v", i, err)
		}
		prev = h.Hash()
	}
	h5 := blockmodel.Header{
		Version: 1, Height: 5, PrevBlock: prev,
		MerkleRoot: hashx.Sum([]byte("root-5")), TimeStamp: 1005,
	}
	body := []byte("block five body")
	if err := s.Append(h5, body); err != nil {
		t.Fatalf("append real block on header-only history: %v", err)
	}

	check := func(s *Store) {
		t.Helper()
		if s.Count() != 6 {
			t.Fatalf("Count=%d", s.Count())
		}
		for i := 0; i < 5; i++ {
			if s.HasBody(uint64(i)) {
				t.Fatalf("height %d claims a body", i)
			}
			if _, err := s.BlockBytes(uint64(i)); !errors.Is(err, ErrNoBody) {
				t.Fatalf("height %d: err = %v, want ErrNoBody", i, err)
			}
			if h, ok := s.Header(uint64(i)); !ok || h.Height != uint64(i) {
				t.Fatalf("header %d missing", i)
			}
		}
		if !s.HasBody(5) {
			t.Fatal("height 5 must have a body")
		}
		got, err := s.BlockBytes(5)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("block 5: %q, %v", got, err)
		}
		if s.HasBody(99) {
			t.Fatal("unknown height claims a body")
		}
	}
	check(s)

	// Reopen: header-only records must survive the index round trip.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)

	// Linkage is still enforced for header-only appends.
	if err := s2.AppendHeader(blockmodel.Header{Version: 1, Height: 6}); err == nil {
		t.Fatal("unlinked header must be rejected")
	}
}

// makeHeaders builds n linked headers starting at startHeight on top
// of prev, without storing them anywhere.
func makeHeaders(n int, startHeight uint64, prev hashx.Hash) []blockmodel.Header {
	hs := make([]blockmodel.Header, n)
	for i := range hs {
		hs[i] = blockmodel.Header{
			Version: 1, Height: startHeight + uint64(i), PrevBlock: prev,
			MerkleRoot: hashx.Sum([]byte(fmt.Sprintf("alt-root-%d", startHeight+uint64(i)))),
			TimeStamp:  uint64(2000 + i),
		}
		prev = hs[i].Hash()
	}
	return hs
}

// TestTruncateRefusesHeaderOnlyHistory pins the reorg boundary of a
// fast-synced store: no truncation may leave the chain tipped (or cut)
// inside the header-only region, because those blocks can never be
// disconnected or re-validated.
func TestTruncateRefusesHeaderOnlyHistory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Heights 0..4 header-only, 5..9 full blocks.
	prev := hashx.ZeroHash
	for _, h := range makeHeaders(5, 0, hashx.ZeroHash) {
		if err := s.AppendHeader(h); err != nil {
			t.Fatal(err)
		}
		prev = h.Hash()
	}
	var bodies [][]byte
	var hdrs []blockmodel.Header
	for i, h := range makeHeaders(5, 5, prev) {
		body := bytes.Repeat([]byte{byte(0xA0 + i)}, 20)
		if err := s.Append(h, body); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		hdrs = append(hdrs, h)
	}

	// Cutting into (or to the edge of) the header-only region fails.
	for _, count := range []int{0, 1, 3, 5} {
		if err := s.Truncate(count); !errors.Is(err, ErrTruncateNoBody) {
			t.Fatalf("Truncate(%d) = %v, want ErrTruncateNoBody", count, err)
		}
	}
	// The failed truncations left everything intact.
	if s.Count() != 10 || !s.HasBody(9) || s.HasBody(4) {
		t.Fatalf("store changed by refused truncate: count %d", s.Count())
	}
	if s.TipHash() != hdrs[4].Hash() {
		t.Fatal("tip changed by refused truncate")
	}

	// Truncating within the full-body region works...
	if err := s.Truncate(7); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 7 || s.TipHash() != hdrs[1].Hash() {
		t.Fatalf("after Truncate(7): count %d", s.Count())
	}
	// ...the cut blocks leave the hash index...
	if _, ok := s.HeightByHash(hdrs[4].Hash()); ok {
		t.Fatal("truncated block still resolvable by hash")
	}
	if h, ok := s.HeightByHash(hdrs[1].Hash()); !ok || h != 6 {
		t.Fatalf("surviving tip not resolvable: %d %v", h, ok)
	}
	// ...and re-appending different blocks at the freed heights keeps
	// HasBody/TipHash/byHash consistent.
	alt := makeHeaders(3, 7, hdrs[1].Hash())
	for i, h := range alt {
		if err := s.Append(h, bytes.Repeat([]byte{byte(0xB0 + i)}, 30)); err != nil {
			t.Fatalf("re-append %d: %v", i, err)
		}
	}
	if s.Count() != 10 || s.TipHash() != alt[2].Hash() {
		t.Fatalf("after re-append: count %d", s.Count())
	}
	for i := 7; i < 10; i++ {
		if !s.HasBody(uint64(i)) {
			t.Fatalf("re-appended height %d lost its body", i)
		}
	}
	if h, ok := s.HeightByHash(alt[0].Hash()); !ok || h != 7 {
		t.Fatalf("re-appended block not indexed: %d %v", h, ok)
	}
	if _, ok := s.HeightByHash(hdrs[2].Hash()); ok {
		t.Fatal("replaced block must leave the hash index")
	}
	// Old bodies under the surviving prefix still read back.
	got, err := s.BlockBytes(6)
	if err != nil || !bytes.Equal(got, bodies[1]) {
		t.Fatalf("surviving body corrupted: %v", err)
	}
}

// TestLocatorProperties pins the locator shape and its resolution:
// dense near the tip, exponentially sparse behind, always anchored at
// genesis, and LocatorFork finds the highest shared block between a
// chain and a truncated-then-diverged copy of it.
func TestLocatorProperties(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Locator() != nil {
		t.Fatal("empty store must have a nil locator")
	}
	makeChain(t, s, 64)

	loc := s.Locator()
	if len(loc) == 0 || len(loc) >= 30 {
		t.Fatalf("locator size %d", len(loc))
	}
	tipH, _ := s.Header(63)
	if loc[0] != tipH.Hash() {
		t.Fatal("locator must lead with the tip")
	}
	gen, _ := s.Header(0)
	if loc[len(loc)-1] != gen.Hash() {
		t.Fatal("locator must end at genesis")
	}
	// The first ten entries are the dense tip window.
	for i := 0; i < 10; i++ {
		h, _ := s.Header(uint64(63 - i))
		if loc[i] != h.Hash() {
			t.Fatalf("dense window entry %d wrong", i)
		}
	}
	// Every entry resolves to its own height on the same chain; the
	// fork point of a chain with itself is its tip.
	if h, ok := s.LocatorFork(loc); !ok || h != 63 {
		t.Fatalf("self fork: %d %v", h, ok)
	}

	// A peer that shares only the first 40 blocks: its fork point with
	// our locator is below 40, and ours with its locator is exactly 39
	// once its chain diverges.
	peer, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for i := 0; i < 40; i++ {
		h, _ := s.Header(uint64(i))
		raw, _ := s.BlockBytes(uint64(i))
		if err := peer.Append(h, raw); err != nil {
			t.Fatal(err)
		}
	}
	h39, _ := s.Header(39)
	for _, h := range makeHeaders(6, 40, h39.Hash()) {
		if err := peer.Append(h, []byte("divergent body")); err != nil {
			t.Fatal(err)
		}
	}
	forkH, ok := s.LocatorFork(peer.Locator())
	if !ok || forkH > 39 {
		t.Fatalf("fork with diverged peer: %d %v", forkH, ok)
	}
	// The locator's geometry guarantees the found point is no deeper
	// than the doubling gap around the true fork; for a 64-block chain
	// that is still well above genesis.
	if forkH < 16 {
		t.Fatalf("fork point implausibly deep: %d", forkH)
	}
	// Unknown locator: nothing shared.
	alien := makeHeaders(3, 0, hashx.ZeroHash)
	if _, ok := s.LocatorFork([]hashx.Hash{alien[0].Hash(), alien[1].Hash()}); ok {
		t.Fatal("alien locator must not resolve")
	}
}
