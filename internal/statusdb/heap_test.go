//go:build !race

// Race instrumentation skews allocation accounting, so the heap budget
// runs only in normal builds.

package statusdb

import (
	"runtime"
	"testing"
)

// heapAlloc returns the live heap after two collections, the second
// of which also empties the pools' victim caches.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSpentOutSetReleasesHeap grows the set to thousands of vectors,
// each commit re-encoding eight older ones beside its new vector, then
// spends out all but one vector in 16. What the set still holds must
// be near what its survivors need: the map shrinks with them, and a
// survivor's encoding must not keep the slab of the commit that wrote
// it (and the long-dead re-encodings in it) reachable.
func TestSpentOutSetReleasesHeap(t *testing.T) {
	const (
		blocks    = 16000
		outputs   = 256
		fanIn     = 8  // older vectors each growing block spends from
		keepEvery = 16 // one vector in keepEvery survives
		// Beside twice the live encoded bytes (the slab bound), each
		// survivor may cost a few 33-byte map slots (a right-sized map
		// rounds up to a power of two, and the set may fall to a
		// quarter before the next shrink) and a share of the commit
		// scratch.
		mapPerSurvivor = 160
	)
	before := heapAlloc()
	d := New()
	spent := make([]int, blocks) // outputs spent so far, per height
	var spends []Spend
	for h := uint64(0); h < blocks; h++ {
		spends = spends[:0]
		for back := uint64(1); back <= fanIn && back <= h; back++ {
			src := h - back
			if spent[src] < outputs-1 {
				spends = append(spends, Spend{Height: src, Pos: uint32(spent[src])})
				spent[src]++
			}
		}
		if err := d.Connect(h, outputs, spends); err != nil {
			t.Fatal(err)
		}
	}
	// Spend out every vector but the survivors, a few per block, in
	// zero-output blocks that store nothing.
	next := uint64(blocks)
	spends = spends[:0]
	for src := uint64(0); src < blocks; src++ {
		if src%keepEvery == 0 {
			continue
		}
		for pos := spent[src]; pos < outputs; pos++ {
			spends = append(spends, Spend{Height: src, Pos: uint32(pos)})
		}
		if len(spends) >= 4*outputs {
			if err := d.Connect(next, 0, spends); err != nil {
				t.Fatal(err)
			}
			next++
			spends = spends[:0]
		}
	}
	if err := d.Connect(next, 0, spends); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	survivors := d.VectorCount()
	if want := blocks / keepEvery; survivors != want {
		t.Fatalf("%d vectors survive, want %d", survivors, want)
	}
	live := d.MemUsage() - vectorOverhead*int64(survivors)
	if d.slabBytes > 2*live {
		t.Fatalf("%d slab bytes retained for %d live encoded bytes", d.slabBytes, live)
	}
	held := float64(heapAlloc()) - float64(before)
	runtime.KeepAlive(d)
	budget := float64(2*live + mapPerSurvivor*int64(survivors))
	t.Logf("%d survivors, %d live encoded bytes: %.0f B held, budget %.0f B", survivors, live, held, budget)
	if held > budget {
		t.Fatalf("spent-out set holds %.0f B for %d survivors with %d live encoded bytes, budget %.0f B",
			held, survivors, live, budget)
	}
}
