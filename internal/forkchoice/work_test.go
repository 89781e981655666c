package forkchoice

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"ebv/internal/hashx"
)

func bigWorkOf(bits uint32) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(bits))
}

// TestWorkMatchesBigInt pins the fixed-width work arithmetic to
// math/big over random sums of per-block work up to 2^256: the
// big-endian bytes the hello carries and every comparison agree.
func TestWorkMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (work{}).bytes(); len(got) != 0 {
		t.Fatalf("zero work encodes as %x, want empty", got)
	}
	for trial := 0; trial < 200; trial++ {
		var a, b work
		ba, bb := new(big.Int), new(big.Int)
		for i := rng.Intn(50); i > 0; i-- {
			bits := uint32(rng.Intn(257))
			if rng.Intn(3) == 0 {
				bits = uint32(rng.Intn(8))
			}
			a = a.add(workOf(bits))
			ba.Add(ba, bigWorkOf(bits))
			if rng.Intn(2) == 0 {
				b = b.add(workOf(bits))
				bb.Add(bb, bigWorkOf(bits))
			}
		}
		if !bytes.Equal(a.bytes(), ba.Bytes()) {
			t.Fatalf("trial %d: bytes %x, math/big %x", trial, a.bytes(), ba.Bytes())
		}
		if got, want := a.cmp(b), ba.Cmp(bb); got != want {
			t.Fatalf("trial %d: cmp %d, math/big %d", trial, got, want)
		}
		if got, want := b.cmp(a), bb.Cmp(ba); got != want {
			t.Fatalf("trial %d: reverse cmp %d, math/big %d", trial, got, want)
		}
	}
}

// refTipWork sums the chain's per-block work with math/big.
func refTipWork(c *fakeChain) []byte {
	acc := new(big.Int)
	for _, h := range c.blocks {
		acc.Add(acc, bigWorkOf(h.Bits))
	}
	return acc.Bytes()
}

// TestReorgBackUsesOldBranchWork switches to a heavier branch and back.
// The return hinges on the work the losing blocks were re-indexed with
// when the first switch rebuilt the prefix: one more block on the old
// branch ties the active tip (no switch) and a second one wins.
func TestReorgBackUsesOldBranchWork(t *testing.T) {
	c := newFakeChain()
	e := New(c, Config{})
	genesis := mkBlock(hashx.ZeroHash, 0, 0, 0)
	feed(t, e, [][]byte{genesis}, "")
	g := hashOf(genesis)
	a := mkBranch(g, 1, 4, 1, 'a') // work 4×2
	b := mkBranch(g, 1, 3, 2, 'b') // work 3×4
	check := func(stage string) {
		t.Helper()
		if got, want := e.TipWork(), refTipWork(c); !bytes.Equal(got, want) {
			t.Fatalf("%s: TipWork %x, reference %x", stage, got, want)
		}
	}
	feed(t, e, a, "")
	check("after A")
	if v := feed(t, e, b, ""); v[len(v)-1] != Reorged {
		t.Fatalf("heavier branch B: verdicts %v", v)
	}
	check("after B")
	a5 := mkBlock(hashOf(a[3]), 5, 2, 'a') // A's work now equals B's
	if v := feed(t, e, [][]byte{a5}, ""); v[0] != SideStored {
		t.Fatalf("A tying B: verdict %v, want side", v[0])
	}
	a6 := mkBlock(hashOf(a5), 6, 0, 'a')
	if v := feed(t, e, [][]byte{a6}, ""); v[0] != Reorged {
		t.Fatalf("A overtaking B: verdict %v, want reorged", v[0])
	}
	if tip, _ := c.TipHeight(); tip != 6 || c.TipHash() != hashOf(a6) {
		t.Fatalf("tip %d %s, want A's height 6", tip, c.TipHash().Short())
	}
	check("back on A")
}
