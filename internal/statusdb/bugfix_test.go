package statusdb

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"ebv/internal/bitvec"
)

// TestLoadRejectsDuplicateHeights feeds Load a crafted snapshot that
// carries the same height twice. The old code kept the last encoding
// but accumulated memBytes/dense/ones for every copy, permanently
// corrupting MemUsage/DenseUsage/UnspentCount; duplicates must be
// rejected exactly as ImportVectors rejects them.
func TestLoadRejectsDuplicateHeights(t *testing.T) {
	enc := bitvec.NewAllSet(4).Encode()
	var buf bytes.Buffer
	writeUvarint := func(v uint64) {
		var b [binary.MaxVarintLen64]byte
		buf.Write(b[:binary.PutUvarint(b[:], v)])
	}
	writeUvarint(2) // tip+1: tip = 1
	writeUvarint(2) // two vectors...
	for i := 0; i < 2; i++ {
		writeUvarint(0) // ...both at height 0
		writeUvarint(uint64(len(enc)))
		buf.Write(enc)
	}

	d := New()
	if err := d.Connect(0, 7, nil); err != nil {
		t.Fatal(err)
	}
	before := d.MemUsage()
	err := d.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "duplicate height") {
		t.Fatalf("duplicate-height snapshot must be rejected, got %v", err)
	}
	// The failed load must leave the set untouched and consistent.
	if d.MemUsage() != before {
		t.Fatalf("failed load changed MemUsage: %d -> %d", before, d.MemUsage())
	}
	if tip, has := d.Tip(); !has || tip != 0 {
		t.Fatalf("failed load moved the tip: %d %v", tip, has)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConnectZeroOutputBlock: a block with no outputs must not store a
// zero-length vector. The old code inserted one that no spend could
// ever clear, so it was never deleted as fully spent — breaking the
// "absent = fully spent" invariant and inflating VectorCount and every
// snapshot forever.
func TestConnectZeroOutputBlock(t *testing.T) {
	d := New()
	if err := d.Connect(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	mem0, ones0, vecs0 := d.MemUsage(), d.UnspentCount(), d.VectorCount()
	if err := d.Connect(1, 0, []Spend{{Height: 0, Pos: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := d.VectorCount(); got != vecs0 {
		t.Fatalf("zero-output block stored a vector: VectorCount %d, want %d", got, vecs0)
	}
	if tip, has := d.Tip(); !has || tip != 1 {
		t.Fatalf("zero-output block must still advance the tip: %d %v", tip, has)
	}
	// Explicit absent-height semantics: any probe reports spent with
	// no error, and VectorLen reports no live vector.
	for _, pos := range []uint32{0, 1, 99} {
		ok, err := d.IsUnspent(1, pos)
		if err != nil || ok {
			t.Fatalf("probe of zero-output block pos %d: %v %v, want false,nil", pos, ok, err)
		}
	}
	if n, ok := d.VectorLen(1); ok {
		t.Fatalf("VectorLen of zero-output block: %d,%v, want ok=false", n, ok)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The snapshot must not carry the phantom vector either.
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d2.VectorCount() != vecs0 || d2.MemUsage() != d.MemUsage() {
		t.Fatalf("snapshot round trip diverged: %d vectors / %d bytes", d2.VectorCount(), d2.MemUsage())
	}

	// Disconnecting the zero-output block restores the spent bit and
	// the original accounting exactly.
	if err := d.Disconnect(1, []Restore{{Height: 0, Pos: 2, NOutputs: 3}}); err != nil {
		t.Fatal(err)
	}
	if d.MemUsage() != mem0 || d.UnspentCount() != ones0 || d.VectorCount() != vecs0 {
		t.Fatalf("disconnect of zero-output block did not restore accounting: %d/%d/%d want %d/%d/%d",
			d.MemUsage(), d.UnspentCount(), d.VectorCount(), mem0, ones0, vecs0)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A zero-output genesis leaves a completely empty (but tipped) set.
	d3 := New()
	if err := d3.Connect(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if d3.VectorCount() != 0 || d3.MemUsage() != 0 {
		t.Fatalf("zero-output genesis stored state: %d vectors, %d bytes", d3.VectorCount(), d3.MemUsage())
	}
	if err := d3.Disconnect(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, has := d3.Tip(); has {
		t.Fatal("set must be empty after genesis disconnect")
	}
}

// TestDisconnectCorruptVectorFailsCleanly plants an undecodable
// encoding and asserts Disconnect reports the corruption before any
// mutation. The old commit loop ignored the decode error (oldV, _ :=
// bitvec.Decode(old)) after state had already started changing, so a
// corrupt stored vector was a mid-reorg panic waiting to happen.
func TestDisconnectCorruptVectorFailsCleanly(t *testing.T) {
	d := New()
	if err := d.Connect(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(1, 2, []Spend{{Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored vector a restore will rewrite.
	d.vectors[0] = []byte{0xFF}
	err := d.Disconnect(1, []Restore{{Height: 0, Pos: 1, NOutputs: 4}})
	if err == nil || !strings.Contains(err.Error(), "corrupt vector at height 0") {
		t.Fatalf("corrupt restored vector: got %v", err)
	}
	if tip, has := d.Tip(); !has || tip != 1 {
		t.Fatalf("failed disconnect moved the tip: %d %v", tip, has)
	}
	if _, ok := d.vectors[1]; !ok {
		t.Fatal("failed disconnect dropped the tip vector")
	}

	// Same for the tip block's own vector.
	d2 := New()
	if err := d2.Connect(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := d2.Connect(1, 2, []Spend{{Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	d2.vectors[1] = []byte{0xFF}
	err = d2.Disconnect(1, []Restore{{Height: 0, Pos: 1, NOutputs: 4}})
	if err == nil || !strings.Contains(err.Error(), "corrupt tip vector") {
		t.Fatalf("corrupt tip vector: got %v", err)
	}
	if tip, has := d2.Tip(); !has || tip != 1 {
		t.Fatalf("failed disconnect moved the tip: %d %v", tip, has)
	}
	// The restored bit must not have been set: staging never mutates.
	if ok, err := d2.IsUnspent(0, 1); err != nil || ok {
		t.Fatalf("failed disconnect mutated a restored bit: %v %v", ok, err)
	}
}
