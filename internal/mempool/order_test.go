package mempool

import (
	"math/rand"
	"sort"
	"testing"

	"ebv/internal/hashx"
	"ebv/internal/txmodel"
)

// TestFeeRateTieBreakIsHexOrder: the eviction heap and BuildTemplate
// break fee-rate ties on the raw id bytes, which must rank ids exactly
// as their hex strings do — the order both used when they compared
// formatted ids.
func TestFeeRateTieBreakIsHexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	p := &Pool{entries: make(map[hashx.Hash]*entry)}
	var h feeHeap
	ids := make([]hashx.Hash, n)
	for i := range ids {
		rng.Read(ids[i][:])
		if i%2 == 1 {
			// Shared prefixes make the comparison reach deep bytes.
			copy(ids[i][:rng.Intn(hashx.Size)], ids[i-1][:])
		}
		// Every entry ties on fee rate; LockTime names the entry in the
		// template's decodes.
		raw := (&txmodel.EBVTx{Tidy: txmodel.TidyTx{LockTime: uint32(i)}}).Encode(nil)
		e := &entry{raw: raw, id: ids[i], fee: uint64(len(raw))} // fee rate 1
		p.entries[ids[i]] = e
		h = append(h, e)
	}

	for i := range h {
		for j := range h {
			if got, want := h.Less(i, j), ids[i].String() < ids[j].String(); got != want {
				t.Fatalf("heap Less(%s, %s) = %v, hex order says %v", ids[i], ids[j], got, want)
			}
		}
	}

	want := append([]hashx.Hash(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
	txs, _ := p.BuildTemplate(0)
	if len(txs) != n {
		t.Fatalf("template holds %d txs, want %d", len(txs), n)
	}
	for i, tx := range txs {
		if got := ids[tx.Tidy.LockTime]; got != want[i] {
			t.Fatalf("template slot %d holds %s, hex order puts %s there", i, got, want[i])
		}
	}
}
