//go:build !race

// Race instrumentation skews allocation accounting, so the heap budget
// runs only in normal builds.

package chainstore

import (
	"runtime"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexHeapBudget pins what the store keeps resident per height: a
// 104-byte header, an 8-byte offset and the hash index, measured after
// GC over a header-only chain (the shape a fast-synced node keeps for
// its history).
func TestIndexHeapBudget(t *testing.T) {
	const (
		heights      = 20000
		maxPerHeight = 150
	)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := heapAlloc()
	prev := hashx.ZeroHash
	for i := uint64(0); i < heights; i++ {
		h := blockmodel.Header{Version: 1, Height: i, PrevBlock: prev, TimeStamp: 1000 + i}
		if err := s.AppendHeader(h); err != nil {
			t.Fatal(err)
		}
		prev = h.Hash()
	}
	after := heapAlloc()
	if s.Count() != heights {
		t.Fatalf("Count=%d, want %d", s.Count(), heights)
	}
	runtime.KeepAlive(s)
	perHeight := (float64(after) - float64(before)) / heights
	t.Logf("%.1f B per height", perHeight)
	if perHeight > maxPerHeight {
		t.Fatalf("store holds %.1f B per height, budget %d", perHeight, maxPerHeight)
	}
}
