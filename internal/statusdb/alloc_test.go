//go:build !race

// Race instrumentation skews allocation accounting, so the allocation
// gates run only in normal builds.

package statusdb

import "testing"

// TestWarmCommitAllocs pins the commit path's allocations: a warm
// Connect of a block with 64 spends across 8 heights allocates exactly
// one object, the encode slab, and a batch probe into a sized buffer
// allocates nothing.
func TestWarmCommitAllocs(t *testing.T) {
	const (
		heights   = 8
		perHeight = 8    // spends per height in every block
		outputs   = 4096 // outputs of each spent-from block
		warm      = 5
		runs      = 100
	)
	d := New(true)
	for h := uint64(0); h < heights; h++ {
		if err := d.Connect(h, outputs, nil); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(heights)
	block := 0
	spends := make([]Spend, 0, heights*perHeight)
	connect := func() {
		// Position-major order, so Connect's sort has work to do.
		spends = spends[:0]
		for i := 0; i < perHeight; i++ {
			for h := uint64(0); h < heights; h++ {
				spends = append(spends, Spend{Height: h, Pos: uint32(block*perHeight + i)})
			}
		}
		if err := d.Connect(next, 2, spends); err != nil {
			t.Fatal(err)
		}
		next++
		block++
	}
	for i := 0; i < warm; i++ {
		connect()
	}
	if got := testing.AllocsPerRun(runs, connect); got != 1 {
		t.Fatalf("warm Connect of %d spends over %d heights: %v allocs, want 1 (the encode slab)", len(spends), heights, got)
	}

	probes := append([]Spend(nil), spends...)
	probes = append(probes, Spend{Height: 0, Pos: outputs - 1}, Spend{Height: next - 1, Pos: 1})
	res := make([]ProbeResult, len(probes))
	if got := testing.AllocsPerRun(runs, func() { res = d.IsUnspentBatchInto(probes, res) }); got != 0 {
		t.Fatalf("IsUnspentBatchInto into a sized buffer: %v allocs, want 0", got)
	}
	for i, r := range res {
		if want := i >= len(spends); r.Err != nil || r.Unspent != want {
			t.Fatalf("probe %v: (%v,%v), want (%v,nil)", probes[i], r.Unspent, r.Err, want)
		}
	}
}
