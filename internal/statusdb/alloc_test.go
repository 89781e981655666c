//go:build !race

// Race instrumentation skews allocation accounting, so the allocation
// gates run only in normal builds.

package statusdb

import "testing"

const (
	gatePerHeight = 8    // spends per height in every gate block
	gateOutputs   = 4096 // outputs of each spent-from block
	gateRuns      = 100
)

// gateSpends appends gate block b's spends to dst: gatePerHeight
// outputs at each of heights 0..heights-1, in position-major order so
// the commit's sort has work to do.
func gateSpends(dst []Spend, heights, b int) []Spend {
	for i := 0; i < gatePerHeight; i++ {
		for h := 0; h < heights; h++ {
			dst = append(dst, Spend{Height: uint64(h), Pos: uint32(b*gatePerHeight + i)})
		}
	}
	return dst
}

// gateSet connects heights blocks of gateOutputs outputs each.
func gateSet(t *testing.T, heights int) *DB {
	d := New()
	for h := 0; h < heights; h++ {
		if err := d.Connect(uint64(h), gateOutputs, nil); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestWarmCommitAllocs pins the commit path's allocations: a warm
// Connect of a block with 64 spends across 8 heights allocates exactly
// one object, the encode slab; so does a warm Disconnect of such a
// block, whether it restores 8 heights or 64; and a batch probe into a
// sized buffer allocates nothing.
func TestWarmCommitAllocs(t *testing.T) {
	const (
		heights = 8
		warm    = 5
	)
	d := gateSet(t, heights)
	next := uint64(heights)
	block := 0
	spends := make([]Spend, 0, heights*gatePerHeight)
	connect := func() {
		spends = gateSpends(spends[:0], heights, block)
		if err := d.Connect(next, 2, spends); err != nil {
			t.Fatal(err)
		}
		next++
		block++
	}
	for i := 0; i < warm; i++ {
		connect()
	}
	if got := testing.AllocsPerRun(gateRuns, connect); got != 1 {
		t.Fatalf("warm Connect of %d spends over %d heights: %v allocs, want 1 (the encode slab)", len(spends), heights, got)
	}

	probes := append([]Spend(nil), spends...)
	probes = append(probes, Spend{Height: 0, Pos: gateOutputs - 1}, Spend{Height: next - 1, Pos: 1})
	res := make([]ProbeResult, len(probes))
	if got := testing.AllocsPerRun(gateRuns, func() { res = d.IsUnspentBatchInto(probes, res) }); got != 0 {
		t.Fatalf("IsUnspentBatchInto into a sized buffer: %v allocs, want 0", got)
	}
	for i, r := range res {
		if want := i >= len(spends); r.Err != nil || r.Unspent != want {
			t.Fatalf("probe %v: (%v,%v), want (%v,nil)", probes[i], r.Unspent, r.Err, want)
		}
	}

	for _, heights := range []int{8, 64} {
		if got := warmDisconnectAllocs(t, heights); got != 1 {
			t.Fatalf("warm Disconnect restoring %d spends over %d heights: %v allocs, want 1 (the encode slab)", heights*gatePerHeight, heights, got)
		}
	}
}

// warmDisconnectAllocs connects gate blocks on a set of the given
// number of heights and returns the mean allocations of a warm
// Disconnect popping one of them, its restores in the gate's
// position-major order. It connects twice the blocks it pops, so the
// map never shrinks during the measurement.
func warmDisconnectAllocs(t *testing.T, heights int) float64 {
	d := gateSet(t, heights)
	var stack [][]Restore
	var spends []Spend
	for b := 0; b < 2*(gateRuns+2); b++ {
		spends = gateSpends(spends[:0], heights, b)
		restores := make([]Restore, len(spends))
		for i, s := range spends {
			restores[i] = Restore{Height: s.Height, Pos: s.Pos, NOutputs: gateOutputs}
		}
		if err := d.Connect(uint64(heights+b), 2, spends); err != nil {
			t.Fatal(err)
		}
		stack = append(stack, restores)
	}
	disconnect := func() {
		tip := uint64(heights + len(stack) - 1)
		if err := d.Disconnect(tip, stack[len(stack)-1]); err != nil {
			t.Fatal(err)
		}
		stack = stack[:len(stack)-1]
	}
	disconnect() // warms the restore scratch
	allocs := testing.AllocsPerRun(gateRuns, disconnect)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return allocs
}
