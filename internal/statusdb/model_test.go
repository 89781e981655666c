package statusdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

type blockRec struct {
	height   uint64
	nOutputs int
	spends   []Spend
}

// errPlain is the expected class of a failure that wraps none of the
// package's sentinel errors (height-sequence and restore-state
// violations).
var errPlain = errors.New("failure without a sentinel")

// checkErrClass asserts err belongs to want: nil for success, errPlain
// for a failure matching no sentinel, else errors.Is(err, want).
func checkErrClass(t *testing.T, desc string, err, want error) {
	t.Helper()
	switch {
	case want == nil:
		if err != nil {
			t.Fatalf("%s: unexpected error %v", desc, err)
		}
	case err == nil:
		t.Fatalf("%s: succeeded, want %v", desc, want)
	case want == errPlain:
		for _, s := range []error{ErrUnknownBlock, ErrDoubleSpend, ErrOutOfRange} {
			if errors.Is(err, s) {
				t.Fatalf("%s: got %v, want a failure without a sentinel", desc, err)
			}
		}
	case !errors.Is(err, want):
		t.Fatalf("%s: got %v, want %v", desc, err, want)
	}
}

// live reports whether the model stores a vector at h: the block has
// at least one unspent output.
func (m *soakModel) live(h uint64) bool {
	for _, u := range m.unspent[h] {
		if u {
			return true
		}
	}
	return false
}

// wantProbe is the model's answer to IsUnspent(h, pos): the bit and
// the error class.
func (m *soakModel) wantProbe(h uint64, pos uint32) (bool, error) {
	if h >= m.next {
		return false, ErrUnknownBlock
	}
	if !m.live(h) {
		return false, nil
	}
	flags := m.unspent[h]
	if int(pos) >= len(flags) {
		return false, ErrOutOfRange
	}
	return flags[pos], nil
}

// probeAgainstModel probes every spend in one batch and singly,
// requiring the two to agree exactly (same error text) and both to
// match the model.
func probeAgainstModel(t *testing.T, desc string, d *DB, m *soakModel, probes []Spend) {
	t.Helper()
	batch := d.IsUnspentBatch(probes)
	for i, p := range probes {
		single, err := d.IsUnspent(p.Height, p.Pos)
		if single != batch[i].Unspent || (err == nil) != (batch[i].Err == nil) ||
			(err != nil && err.Error() != batch[i].Err.Error()) {
			t.Fatalf("%s: probe %v: batch (%v,%v), single (%v,%v)", desc, p, batch[i].Unspent, batch[i].Err, single, err)
		}
		want, wantErr := m.wantProbe(p.Height, p.Pos)
		checkErrClass(t, fmt.Sprintf("%s: probe %v", desc, p), err, wantErr)
		if single != want {
			t.Fatalf("%s: probe %v = %v, model says %v", desc, p, single, want)
		}
	}
}

// checkAgainstModel asserts d holds exactly the model's state: the
// tip, every bit of every connected block (plus one position past each
// block's end and one height past the tip), UnspentCount, VectorCount,
// and the store's own invariants.
func checkAgainstModel(t *testing.T, desc string, d *DB, m *soakModel) {
	t.Helper()
	tip, has := d.Tip()
	if has != (m.next > 0) || (has && tip != m.next-1) {
		t.Fatalf("%s: tip (%d,%v), model next %d", desc, tip, has, m.next)
	}
	var probes []Spend
	var ones int64
	vecs := 0
	for h := uint64(0); h <= m.next; h++ {
		flags := m.unspent[h]
		for p := 0; p <= len(flags); p++ {
			probes = append(probes, Spend{Height: h, Pos: uint32(p)})
			if p < len(flags) && flags[p] {
				ones++
			}
		}
		if m.live(h) {
			vecs++
		}
	}
	probeAgainstModel(t, desc, d, m, probes)
	if got := d.UnspentCount(); got != ones {
		t.Fatalf("%s: UnspentCount %d, model %d", desc, got, ones)
	}
	if got := d.VectorCount(); got != vecs {
		t.Fatalf("%s: VectorCount %d, model %d", desc, got, vecs)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
}

// TestAdversarialCorpusMatchesModel drives every failure mode through
// one DB: each operation must fail with its error class and leave the
// Save stream untouched, and each valid one must land on the model's
// state.
func TestAdversarialCorpusMatchesModel(t *testing.T) {
	d := New()
	m := newSoakModel()

	fail := func(desc string, want error, op func() error) error {
		t.Helper()
		before := saveBytes(t, d)
		err := op()
		checkErrClass(t, desc, err, want)
		if !bytes.Equal(saveBytes(t, d), before) {
			t.Fatalf("%s: failed operation changed the set", desc)
		}
		checkAgainstModel(t, desc, d, m)
		return err
	}
	connect := func(desc string, n int, sp []Spend) {
		t.Helper()
		checkErrClass(t, desc, d.Connect(m.next, n, sp), nil)
		m.applyConnect(n, sp)
		checkAgainstModel(t, desc, d, m)
	}
	disconnect := func(desc string) {
		t.Helper()
		h, restores := m.popDisconnect()
		checkErrClass(t, desc, d.Disconnect(h, restores), nil)
		checkAgainstModel(t, desc, d, m)
	}

	fail("connect before genesis", errPlain, func() error { return d.Connect(3, 4, nil) })
	connect("genesis", 8, nil)
	fail("reconnect genesis", errPlain, func() error { return d.Connect(0, 8, nil) })
	fail("skip height", errPlain, func() error { return d.Connect(5, 4, nil) })
	fail("negative outputs", ErrOutOfRange, func() error { return d.Connect(1, -1, nil) })
	fail("self-spend", ErrUnknownBlock, func() error {
		return d.Connect(1, 2, []Spend{{Height: 1, Pos: 0}})
	})
	fail("future spend", ErrUnknownBlock, func() error {
		return d.Connect(1, 2, []Spend{{Height: 7, Pos: 0}})
	})
	connect("block 1", 6, []Spend{{Height: 0, Pos: 1}, {Height: 0, Pos: 5}})
	fail("double spend", ErrDoubleSpend, func() error {
		return d.Connect(2, 2, []Spend{{Height: 0, Pos: 1}})
	})
	fail("intra-block duplicate", ErrDoubleSpend, func() error {
		return d.Connect(2, 2, []Spend{{Height: 0, Pos: 2}, {Height: 0, Pos: 2}})
	})
	fail("out of range", ErrOutOfRange, func() error {
		return d.Connect(2, 2, []Spend{{Height: 0, Pos: 64}})
	})
	// Several invalid heights in one call: the reported error is the
	// one at the lowest height, whatever the input order.
	err := fail("multi-height failure", ErrDoubleSpend, func() error {
		return d.Connect(2, 2, []Spend{
			{Height: 1, Pos: 63}, // out of range at height 1
			{Height: 0, Pos: 5},  // double spend at height 0 — must win
		})
	})
	if !strings.Contains(err.Error(), "height 0 position 5") {
		t.Fatalf("multi-height failure reported %v, want the double spend at height 0", err)
	}
	connect("zero-output block", 0, []Spend{{Height: 0, Pos: 0}})
	connect("spend across heights", 4, []Spend{{Height: 0, Pos: 2}, {Height: 1, Pos: 3}})

	probeAgainstModel(t, "post-corpus", d, m, []Spend{
		{Height: 0, Pos: 0}, {Height: 0, Pos: 1}, {Height: 0, Pos: 99},
		{Height: 1, Pos: 3}, {Height: 2, Pos: 0}, {Height: 3, Pos: 3},
		{Height: 9, Pos: 0},
	})

	fail("disconnect below tip", errPlain, func() error { return d.Disconnect(1, nil) })
	fail("restore unspent bit", errPlain, func() error {
		return d.Disconnect(3, []Restore{{Height: 1, Pos: 0, NOutputs: 6}})
	})
	fail("restore wrong nOutputs", ErrOutOfRange, func() error {
		return d.Disconnect(3, []Restore{{Height: 0, Pos: 2, NOutputs: 5}})
	})
	fail("restore future height", ErrUnknownBlock, func() error {
		return d.Disconnect(3, []Restore{{Height: 4, Pos: 0, NOutputs: 2}})
	})
	disconnect("disconnect block 3")
	disconnect("disconnect zero-output block")
	disconnect("disconnect block 1")
	disconnect("disconnect genesis")
}

// TestRandomizedWorkloadMatchesModel replays a seeded random workload
// — valid connects and disconnects with injected invalid operations —
// and checks every probe and aggregate against the model after every
// step. Some blocks carry hundreds of outputs and spends. The subtest
// keeps the name of the optimized encoding, the one New builds.
func TestRandomizedWorkloadMatchesModel(t *testing.T) {
	t.Run("optimize=true", testRandomizedWorkloadMatchesModel)
}

func testRandomizedWorkloadMatchesModel(t *testing.T) {
	d := New()
	m := newSoakModel()
	rng := rand.New(rand.NewSource(42))

	// invalid runs an operation that must fail with class want and
	// leave the set unchanged.
	invalid := func(step int, desc string, want error, op func() error) {
		t.Helper()
		before := saveBytes(t, d)
		checkErrClass(t, fmt.Sprintf("step %d: %s", step, desc), op(), want)
		if !bytes.Equal(saveBytes(t, d), before) {
			t.Fatalf("step %d: %s changed the set", step, desc)
		}
	}

	for step := 0; step < 250; step++ {
		switch r := rng.Intn(10); {
		case r < 6: // valid connect, sometimes with a large block
			n := rng.Intn(20)
			if rng.Intn(4) == 0 {
				n = 200 + rng.Intn(200)
			}
			sp := m.pickSpends(rng, rng.Intn(100)+1)
			if err := d.Connect(m.next, n, sp); err != nil {
				t.Fatalf("step %d: valid connect failed: %v", step, err)
			}
			m.applyConnect(n, sp)
		case r < 8 && len(m.history) > 0: // valid disconnect of the tip
			h, restores := m.popDisconnect()
			if err := d.Disconnect(h, restores); err != nil {
				t.Fatalf("step %d: valid disconnect failed: %v", step, err)
			}
		default:
			bad := rng.Intn(4)
			next := m.next
			switch {
			case bad == 0 && next > 0:
				h := next + 1 + uint64(rng.Intn(5))
				invalid(step, "bad connect height", errPlain, func() error { return d.Connect(h, 4, nil) })
			case bad == 1 && next > 0:
				h := uint64(rng.Intn(int(next)))
				p := uint32(100000 + rng.Intn(100))
				// A height with no vector reads as fully spent.
				want := ErrOutOfRange
				if !m.live(h) {
					want = ErrDoubleSpend
				}
				invalid(step, "bad spend", want, func() error {
					return d.Connect(next, 4, []Spend{{Height: h, Pos: p}})
				})
			case bad == 2 && len(m.history) > 0:
				tipH := m.history[len(m.history)-1].height
				// Restoring height 0 at tip 0 references the tip
				// itself; otherwise the declared output count exceeds
				// bitvec.MaxLen or the stored vector's length.
				want := ErrOutOfRange
				if tipH == 0 {
					want = ErrUnknownBlock
				}
				invalid(step, "bad disconnect", want, func() error {
					return d.Disconnect(tipH, []Restore{{Height: 0, Pos: 0, NOutputs: 1 << 20}})
				})
			default:
				invalid(step, "future spend", ErrUnknownBlock, func() error {
					return d.Connect(next, 4, []Spend{{Height: next + 3, Pos: 0}})
				})
			}
		}
		checkAgainstModel(t, fmt.Sprintf("step %d", step), d, m)
	}

	// An export/import round trip lands on the same state again.
	tip, ok, vecs := d.ExportVectors()
	if !ok {
		return
	}
	d2 := New()
	if err := d2.ImportVectors(tip, vecs); err != nil {
		t.Fatalf("import: %v", err)
	}
	if !bytes.Equal(saveBytes(t, d2), saveBytes(t, d)) {
		t.Fatal("imported set differs from the source")
	}
	if d2.MemUsage() != d.MemUsage() || d2.DenseUsage() != d.DenseUsage() {
		t.Fatalf("imported accounting differs: mem %d/%d dense %d/%d",
			d2.MemUsage(), d.MemUsage(), d2.DenseUsage(), d.DenseUsage())
	}
	checkAgainstModel(t, "imported", d2, m)
}
