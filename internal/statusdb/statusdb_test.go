package statusdb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestConnectAndProbe(t *testing.T) {
	d := New()
	if err := d.Connect(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < 3; p++ {
		ok, err := d.IsUnspent(0, p)
		if err != nil || !ok {
			t.Fatalf("bit %d: %v %v", p, ok, err)
		}
	}
	if err := d.Connect(1, 2, []Spend{{Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	ok, err := d.IsUnspent(0, 1)
	if err != nil || ok {
		t.Fatalf("spent bit must be 0: %v %v", ok, err)
	}
	ok, err = d.IsUnspent(0, 0)
	if err != nil || !ok {
		t.Fatalf("unspent bit must be 1: %v %v", ok, err)
	}
	if tip, has := d.Tip(); !has || tip != 1 {
		t.Fatalf("Tip=%d,%v", tip, has)
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	d := New()
	d.Connect(0, 2, nil)
	if err := d.Connect(1, 1, []Spend{{Height: 0, Pos: 0}}); err != nil {
		t.Fatal(err)
	}
	err := d.Connect(2, 1, []Spend{{Height: 0, Pos: 0}})
	if !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("want double-spend, got %v", err)
	}
	// Duplicate within one block is also a double spend.
	err = d.Connect(2, 1, []Spend{{Height: 0, Pos: 1}, {Height: 0, Pos: 1}})
	if !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("want intra-block double-spend, got %v", err)
	}
	// The failed connects must not have advanced state.
	if tip, _ := d.Tip(); tip != 1 {
		t.Fatalf("failed connect must not move tip, tip=%d", tip)
	}
	ok, _ := d.IsUnspent(0, 1)
	if !ok {
		t.Fatal("failed connect must not clear bits")
	}
}

func TestVectorDeletedWhenAllSpent(t *testing.T) {
	d := New()
	d.Connect(0, 2, nil)
	if d.VectorCount() != 1 {
		t.Fatalf("VectorCount=%d", d.VectorCount())
	}
	if err := d.Connect(1, 1, []Spend{{Height: 0, Pos: 0}, {Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	if d.VectorCount() != 1 { // only block 1's vector remains
		t.Fatalf("fully spent vector must be deleted, VectorCount=%d", d.VectorCount())
	}
	// Probing the deleted block reports spent, not error.
	ok, err := d.IsUnspent(0, 0)
	if err != nil || ok {
		t.Fatalf("deleted vector probe: %v %v", ok, err)
	}
	// Spending from it again is a double spend.
	err = d.Connect(2, 1, []Spend{{Height: 0, Pos: 0}})
	if !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("want double-spend, got %v", err)
	}
}

func TestErrors(t *testing.T) {
	d := New()
	if _, err := d.IsUnspent(0, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("empty db probe: %v", err)
	}
	d.Connect(0, 2, nil)
	if _, err := d.IsUnspent(5, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("future height: %v", err)
	}
	if _, err := d.IsUnspent(0, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := d.Connect(0, 1, nil); err == nil {
		t.Fatal("re-connecting height 0 must fail")
	}
	if err := d.Connect(3, 1, nil); err == nil {
		t.Fatal("skipping heights must fail")
	}
	if err := d.Connect(1, 1, []Spend{{Height: 0, Pos: 7}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("bad position: %v", err)
	}
	if err := d.Connect(1, 1, []Spend{{Height: 1, Pos: 0}}); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("self-spend: %v", err)
	}
	d2 := New()
	if err := d2.Connect(5, 1, nil); err == nil {
		t.Fatal("first block must be height 0")
	}
}

// TestMemoryAccounting checks the set's two footprints on vectors
// spent down to sparseness: MemUsage (the sparse-optimized encodings,
// the EBV line of Fig. 14) falls below DenseUsage (the same vectors
// encoded densely, the no-opt line), and CheckInvariants recomputes
// both from the stored vectors.
func TestMemoryAccounting(t *testing.T) {
	d := New()
	for h := uint64(0); h < 50; h++ {
		var spends []Spend
		if h > 0 {
			// Spend most outputs of the previous block, making its
			// vector sparse.
			for p := uint32(0); p < 97; p++ {
				spends = append(spends, Spend{Height: h - 1, Pos: p})
			}
		}
		if err := d.Connect(h, 100, spends); err != nil {
			t.Fatal(err)
		}
	}
	if d.MemUsage() >= d.DenseUsage() {
		t.Fatalf("optimized %d must be smaller than dense %d", d.MemUsage(), d.DenseUsage())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	wantOnes := int64(50*100 - 49*97)
	if d.UnspentCount() != wantOnes {
		t.Fatalf("UnspentCount=%d want %d", d.UnspentCount(), wantOnes)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewSource(1))
	for h := uint64(0); h < 30; h++ {
		var spends []Spend
		for i := 0; i < 20 && h > 0; i++ {
			sh := uint64(rng.Intn(int(h)))
			pos := uint32(rng.Intn(50))
			ok, err := d.IsUnspent(sh, pos)
			if err == nil && ok {
				dup := false
				for _, s := range spends {
					if s.Height == sh && s.Pos == pos {
						dup = true
					}
				}
				if !dup {
					spends = append(spends, Spend{Height: sh, Pos: pos})
				}
			}
		}
		if err := d.Connect(h, 50, spends); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d2.MemUsage() != d.MemUsage() || d2.DenseUsage() != d.DenseUsage() ||
		d2.UnspentCount() != d.UnspentCount() || d2.VectorCount() != d.VectorCount() {
		t.Fatal("accounting mismatch after load")
	}
	tip1, _ := d.Tip()
	tip2, has := d2.Tip()
	if !has || tip1 != tip2 {
		t.Fatalf("tip mismatch: %d vs %d", tip1, tip2)
	}
	for h := uint64(0); h < 30; h++ {
		for p := uint32(0); p < 50; p += 7 {
			a, e1 := d.IsUnspent(h, p)
			b, e2 := d2.IsUnspent(h, p)
			if (e1 == nil) != (e2 == nil) || a != b {
				t.Fatalf("probe mismatch at %d:%d", h, p)
			}
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	d := New()
	d.Connect(0, 10, nil)
	var buf bytes.Buffer
	d.Save(&buf)
	data := buf.Bytes()
	for _, cut := range []int{0, 1, len(data) - 1} {
		d2 := New()
		if err := d2.Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
}

func TestEmptySaveLoad(t *testing.T) {
	d := New()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, has := d2.Tip(); has {
		t.Fatal("empty snapshot must have no tip")
	}
}

func BenchmarkIsUnspent(b *testing.B) {
	d := New()
	d.Connect(0, 5000, nil)
	var spends []Spend
	for p := uint32(0); p < 4900; p++ {
		spends = append(spends, Spend{Height: 0, Pos: p})
	}
	d.Connect(1, 5000, spends) // block 0's vector is now sparse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.IsUnspent(uint64(i%2), uint32(i%5000))
	}
}

func BenchmarkConnect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := New()
		d.Connect(0, 4000, nil)
		var spends []Spend
		for p := uint32(0); p < 2000; p++ {
			spends = append(spends, Spend{Height: 0, Pos: p * 2})
		}
		b.StartTimer()
		if err := d.Connect(1, 4000, spends); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentProbesDuringConnects(t *testing.T) {
	d := New()
	d.Connect(0, 100, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h := uint64(1); h < 200; h++ {
			var spends []Spend
			if h > 1 {
				spends = []Spend{{Height: h - 1, Pos: uint32(h % 100)}}
			}
			if err := d.Connect(h, 100, spends); err != nil {
				t.Errorf("connect %d: %v", h, err)
				return
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		tip, ok := d.Tip()
		if !ok {
			continue
		}
		if _, err := d.IsUnspent(tip, uint32(i%100)); err != nil {
			t.Fatalf("probe at tip: %v", err)
		}
		d.MemUsage()
		d.UnspentCount()
	}
	<-done
}

func TestDisconnectReversesConnect(t *testing.T) {
	d := New()
	if err := d.Connect(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	mem0 := d.MemUsage()
	ones0 := d.UnspentCount()
	spends := []Spend{{Height: 0, Pos: 1}, {Height: 0, Pos: 3}}
	if err := d.Connect(1, 2, spends); err != nil {
		t.Fatal(err)
	}
	restores := []Restore{{Height: 0, Pos: 1, NOutputs: 4}, {Height: 0, Pos: 3, NOutputs: 4}}
	if err := d.Disconnect(1, restores); err != nil {
		t.Fatal(err)
	}
	if tip, has := d.Tip(); !has || tip != 0 {
		t.Fatalf("tip after disconnect: %d %v", tip, has)
	}
	if d.MemUsage() != mem0 || d.UnspentCount() != ones0 {
		t.Fatalf("accounting not restored: %d/%d vs %d/%d", d.MemUsage(), d.UnspentCount(), mem0, ones0)
	}
	for p := uint32(0); p < 4; p++ {
		if ok, err := d.IsUnspent(0, p); err != nil || !ok {
			t.Fatalf("bit %d must be restored", p)
		}
	}
	// Reconnecting the same block succeeds.
	if err := d.Connect(1, 2, spends); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
}

func TestDisconnectRecreatesDeletedVector(t *testing.T) {
	d := New()
	d.Connect(0, 2, nil)
	// Block 1 spends both of block 0's outputs → vector 0 deleted.
	if err := d.Connect(1, 1, []Spend{{Height: 0, Pos: 0}, {Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	if d.VectorCount() != 1 {
		t.Fatal("vector 0 must be deleted")
	}
	err := d.Disconnect(1, []Restore{
		{Height: 0, Pos: 0, NOutputs: 2},
		{Height: 0, Pos: 1, NOutputs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < 2; p++ {
		if ok, _ := d.IsUnspent(0, p); !ok {
			t.Fatalf("bit %d must be recreated", p)
		}
	}
}

func TestDisconnectErrors(t *testing.T) {
	d := New()
	if err := d.Disconnect(0, nil); err == nil {
		t.Fatal("disconnect on empty must fail")
	}
	d.Connect(0, 2, nil)
	d.Connect(1, 1, []Spend{{Height: 0, Pos: 0}})
	if err := d.Disconnect(0, nil); err == nil {
		t.Fatal("disconnecting below tip must fail")
	}
	if err := d.Disconnect(1, []Restore{{Height: 0, Pos: 1, NOutputs: 2}}); err == nil {
		t.Fatal("restoring an unspent bit must fail")
	}
	if err := d.Disconnect(1, []Restore{{Height: 0, Pos: 9, NOutputs: 2}}); err == nil {
		t.Fatal("out-of-range restore must fail")
	}
	if err := d.Disconnect(1, []Restore{{Height: 5, Pos: 0, NOutputs: 1}}); err == nil {
		t.Fatal("future-height restore must fail")
	}
	// Genesis disconnect empties the set.
	if err := d.Disconnect(1, []Restore{{Height: 0, Pos: 0, NOutputs: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Disconnect(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, has := d.Tip(); has {
		t.Fatal("set must be empty after genesis disconnect")
	}
}

// TestIsUnspentBatchMatchesSingle proves the batched probe answers
// every spend exactly as a standalone IsUnspent call would, across all
// answer shapes: unspent, spent, fully spent (deleted) vector, height
// above the tip, position out of range, and the empty set.
func TestIsUnspentBatchMatchesSingle(t *testing.T) {
	d := New()
	if got := d.IsUnspentBatch([]Spend{{Height: 0, Pos: 0}}); got[0].Err == nil {
		t.Fatal("empty set must report unknown height")
	}
	if got := d.IsUnspentBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch: %v", got)
	}

	if err := d.Connect(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(1, 1, []Spend{{Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	// Fully spend block 1 so its vector is deleted.
	if err := d.Connect(2, 2, []Spend{{Height: 1, Pos: 0}}); err != nil {
		t.Fatal(err)
	}

	probes := []Spend{
		{Height: 0, Pos: 0},   // unspent
		{Height: 0, Pos: 1},   // spent
		{Height: 1, Pos: 0},   // deleted vector: spent, no error
		{Height: 9, Pos: 0},   // above tip: error
		{Height: 0, Pos: 400}, // out of range: error
		{Height: 2, Pos: 1},   // unspent in the tip block
	}
	batch := d.IsUnspentBatch(probes)
	if len(batch) != len(probes) {
		t.Fatalf("batch length %d, want %d", len(batch), len(probes))
	}
	for i, s := range probes {
		unspent, err := d.IsUnspent(s.Height, s.Pos)
		if batch[i].Unspent != unspent {
			t.Fatalf("probe %d (%v): batch unspent=%v, single=%v", i, s, batch[i].Unspent, unspent)
		}
		if (batch[i].Err == nil) != (err == nil) {
			t.Fatalf("probe %d (%v): batch err=%v, single err=%v", i, s, batch[i].Err, err)
		}
		if err != nil && batch[i].Err.Error() != err.Error() {
			t.Fatalf("probe %d (%v): error text divergence:\n  batch:  %v\n  single: %v", i, s, batch[i].Err, err)
		}
	}
	if !errors.Is(batch[3].Err, ErrUnknownBlock) {
		t.Fatalf("above-tip probe: %v", batch[3].Err)
	}
	if !errors.Is(batch[4].Err, ErrOutOfRange) {
		t.Fatalf("out-of-range probe: %v", batch[4].Err)
	}
}
