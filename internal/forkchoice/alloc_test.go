//go:build !race

// Race instrumentation skews allocation accounting, so the allocation
// gate runs only in normal builds.

package forkchoice

import (
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

// TestPrefixRebuildAllocs pins the work prefix's allocations: a
// rebuild over a few thousand headers allocates at most the array,
// once, and a rebuild into an array already that large allocates
// nothing — the work values are pointer-free.
func TestPrefixRebuildAllocs(t *testing.T) {
	const heights = 4000
	c := newFakeChain()
	prev := hashx.ZeroHash
	for h := uint64(0); h < heights; h++ {
		hdr := blockmodel.Header{Version: 1, Height: h, PrevBlock: prev, Bits: uint32(h % 3)}
		c.blocks = append(c.blocks, hdr)
		prev = hdr.Hash()
	}
	e := New(c, Config{})
	rebuild := func(fresh bool) func() {
		return func() {
			e.mu.Lock()
			if fresh {
				e.prefix = nil
			}
			e.rebuildPrefixLocked()
			e.mu.Unlock()
		}
	}
	if got := testing.AllocsPerRun(10, rebuild(true)); got > 1 {
		t.Fatalf("rebuild over %d headers from an empty prefix: %v allocs, want at most 1", heights, got)
	}
	if got := testing.AllocsPerRun(10, rebuild(false)); got != 0 {
		t.Fatalf("rebuild over %d headers into a sized prefix: %v allocs, want 0", heights, got)
	}
	if len(e.prefix) != heights {
		t.Fatalf("prefix covers %d heights, want %d", len(e.prefix), heights)
	}
}
