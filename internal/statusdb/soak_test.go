package statusdb

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// soakModel mirrors the DB with plain maps so the soak can generate
// valid operations and check probe answers.
type soakModel struct {
	outs    map[uint64]int
	unspent map[uint64][]bool
	history []blockRec
	next    uint64
}

func newSoakModel() *soakModel {
	return &soakModel{outs: map[uint64]int{}, unspent: map[uint64][]bool{}}
}

func (m *soakModel) pickSpends(rng *rand.Rand, max int) []Spend {
	var sp []Spend
	taken := map[Spend]bool{}
	for len(sp) < max && m.next > 0 {
		h := uint64(rng.Intn(int(m.next)))
		flags := m.unspent[h]
		if len(flags) == 0 {
			if rng.Intn(3) == 0 {
				break
			}
			continue
		}
		p := uint32(rng.Intn(len(flags)))
		s := Spend{Height: h, Pos: p}
		if !flags[p] || taken[s] {
			if rng.Intn(3) == 0 {
				break
			}
			continue
		}
		taken[s] = true
		sp = append(sp, s)
	}
	return sp
}

func (m *soakModel) applyConnect(n int, sp []Spend) {
	for _, s := range sp {
		m.unspent[s.Height][s.Pos] = false
	}
	m.outs[m.next] = n
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = true
	}
	m.unspent[m.next] = flags
	m.history = append(m.history, blockRec{m.next, n, sp})
	m.next++
}

func (m *soakModel) popDisconnect() (uint64, []Restore) {
	rec := m.history[len(m.history)-1]
	restores := make([]Restore, 0, len(rec.spends))
	for _, s := range rec.spends {
		restores = append(restores, Restore{Height: s.Height, Pos: s.Pos, NOutputs: m.outs[s.Height]})
	}
	for _, s := range rec.spends {
		m.unspent[s.Height][s.Pos] = true
	}
	delete(m.unspent, rec.height)
	delete(m.outs, rec.height)
	m.history = m.history[:len(m.history)-1]
	m.next = rec.height
	return rec.height, restores
}

// TestStatusDBSoakInvariants runs a seeded random workload — connects,
// disconnects, snapshot and export round trips — and calls
// CheckInvariants after every single operation, so a drifting counter
// is caught at the op that corrupted it.
func TestStatusDBSoakInvariants(t *testing.T) {
	d := New()
	m := newSoakModel()
	rng := rand.New(rand.NewSource(7))
	check := func(step int, op string) {
		t.Helper()
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("step %d after %s: %v", step, op, err)
		}
	}
	for step := 0; step < 500; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			n := rng.Intn(24)
			sp := m.pickSpends(rng, rng.Intn(12)+1)
			if err := d.Connect(m.next, n, sp); err != nil {
				t.Fatalf("step %d: connect: %v", step, err)
			}
			m.applyConnect(n, sp)
			check(step, "connect")
		case r < 8 && len(m.history) > 0:
			h, restores := m.popDisconnect()
			if err := d.Disconnect(h, restores); err != nil {
				t.Fatalf("step %d: disconnect: %v", step, err)
			}
			check(step, "disconnect")
		case r == 8:
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatalf("step %d: save: %v", step, err)
			}
			if err := d.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("step %d: load: %v", step, err)
			}
			check(step, "save/load")
		default:
			tip, ok, vecs := d.ExportVectors()
			if ok {
				if err := d.ImportVectors(tip, vecs); err != nil {
					t.Fatalf("step %d: import: %v", step, err)
				}
			}
			check(step, "export/import")
		}
		// Spot-check a few probes against the model.
		if m.next > 0 {
			for i := 0; i < 4; i++ {
				h := uint64(rng.Intn(int(m.next)))
				flags := m.unspent[h]
				if len(flags) == 0 {
					continue
				}
				p := uint32(rng.Intn(len(flags)))
				got, err := d.IsUnspent(h, p)
				if err != nil || got != flags[p] {
					t.Fatalf("step %d: probe (%d,%d): got %v,%v want %v", step, h, p, got, err, flags[p])
				}
			}
		}
	}
}

// soakOp is one valid operation of a precomputed history.
type soakOp struct {
	connect  bool
	height   uint64
	nOutputs int
	spends   []Spend
	restores []Restore
}

// soakHistory generates a seeded valid history of connects (some with
// over a hundred outputs) and tip disconnects. It returns the model's
// state after the last operation.
func soakHistory(seed int64, steps int) ([]soakOp, *soakModel) {
	m := newSoakModel()
	rng := rand.New(rand.NewSource(seed))
	var ops []soakOp
	for step := 0; step < steps; step++ {
		if rng.Intn(10) < 7 || len(m.history) == 0 {
			n := rng.Intn(16)
			if rng.Intn(5) == 0 {
				n = 128 + rng.Intn(128)
			}
			sp := m.pickSpends(rng, rng.Intn(90)+1)
			ops = append(ops, soakOp{connect: true, height: m.next, nOutputs: n, spends: sp})
			m.applyConnect(n, sp)
		} else {
			h, restores := m.popDisconnect()
			ops = append(ops, soakOp{height: h, restores: restores})
		}
	}
	return ops, m
}

// replay applies ops to d in order.
func replay(d *DB, ops []soakOp) error {
	for i, o := range ops {
		var err error
		if o.connect {
			err = d.Connect(o.height, o.nOutputs, o.spends)
		} else {
			err = d.Disconnect(o.height, o.restores)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// TestStatusDBConcurrentSoak replays a precomputed valid operation
// sequence while reader goroutines hammer probes, aggregates, and
// snapshot exports. Run under -race this exercises every lock edge:
// commit staging and install vs. concurrent batch probes vs. shallow
// snapshots. The final state must match a quiet replay byte for byte
// and hold every bit of the model.
func TestStatusDBConcurrentSoak(t *testing.T) {
	ops, m := soakHistory(11, 300)

	d := New()
	var stop atomic.Bool
	// disconnects is bumped on both sides of every Disconnect, so it is
	// odd while one is in flight. Readers probe heights up to a tip read
	// earlier; a Disconnect overlapping the batch can legally retire
	// one of them, and only then is ErrUnknownBlock tolerated.
	var disconnects atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				before := disconnects.Load()
				tip, has := d.Tip()
				if !has {
					continue
				}
				probes := make([]Spend, 300)
				for i := range probes {
					probes[i] = Spend{Height: uint64(rr.Intn(int(tip) + 1)), Pos: uint32(rr.Intn(200))}
				}
				results := d.IsUnspentBatch(probes)
				raced := before%2 == 1 || disconnects.Load() != before
				for _, res := range results {
					// Random positions may overrun a short block's
					// vector; that legitimately reports ErrOutOfRange.
					// A concurrent Disconnect may retire a probed
					// height. Anything else (unknown block with no
					// disconnect in the batch, corrupt vector) is a
					// real failure.
					if res.Err == nil || errors.Is(res.Err, ErrOutOfRange) ||
						(raced && errors.Is(res.Err, ErrUnknownBlock)) {
						continue
					}
					panic(res.Err)
				}
				_, _ = d.IsUnspent(uint64(rr.Intn(int(tip)+1)), uint32(rr.Intn(200)))
				_ = d.MemUsage()
				_ = d.UnspentCount()
			}
		}(int64(100 + r))
	}
	wg.Add(1)
	go func() { // snapshot server simulation
		defer wg.Done()
		for !stop.Load() {
			_, _, _ = d.ExportVectors()
			_ = d.Save(io.Discard)
		}
	}()

	for i, o := range ops {
		var err error
		if o.connect {
			err = d.Connect(o.height, o.nOutputs, o.spends)
		} else {
			disconnects.Add(1)
			err = d.Disconnect(o.height, o.restores)
			disconnects.Add(1)
		}
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("op %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	checkAgainstModel(t, "after concurrent replay", d, m)

	// Byte-identical to a quiet replay.
	ref := New()
	if err := replay(ref, ops); err != nil {
		t.Fatalf("reference %v", err)
	}
	if !bytes.Equal(saveBytes(t, d), saveBytes(t, ref)) {
		t.Fatal("concurrent replay diverged from the quiet replay")
	}
}

// TestSoakHistoryBytesPinned pins the Save stream and the PackRange
// chunks (16 heights each, as hex SHA-256 over the concatenated chunk
// digests) of the concurrent soak's history. Snapshot files and
// state-sync manifests commit to these bytes, so a change to either
// format, or to what a commit stores, must show up here.
func TestSoakHistoryBytesPinned(t *testing.T) {
	const (
		wantSave  = "dde966c72ee78ee9418bb56393ab29c45169ba462ae7e21445adac34c2b4c767"
		wantPacks = "4248c3d79eca64885b87da36a10c30f825edb4a520882c1a6a55da7279d06175"
	)
	ops, _ := soakHistory(11, 300)
	d := New()
	if err := replay(d, ops); err != nil {
		t.Fatal(err)
	}
	tip, _, vecs := d.ExportVectors()
	var digests []byte
	for from := uint64(0); from <= tip; from += 16 {
		sum := sha256.Sum256(PackRange(nil, vecs, from, min(from+16, tip+1)))
		digests = append(digests, sum[:]...)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(saveBytes(t, d))); got != wantSave {
		t.Errorf("Save stream SHA-256 %s, want %s", got, wantSave)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(digests)); got != wantPacks {
		t.Errorf("PackRange chunks SHA-256 %s, want %s", got, wantPacks)
	}
}

// TestBatchProbeSeesWholeCommit connects blocks that each spend one
// output at each of k distinct earlier heights while readers
// batch-probe the next block's spends and read UnspentCount. Every
// batch must come back all unspent or all spent, and every count must
// be the value before or after one of the commits that overlapped the
// read: with one lock, no reader sees part of a commit.
func TestBatchProbeSeesWholeCommit(t *testing.T) {
	const (
		k       = 32  // heights each block spends from
		blocks  = 256 // outputs per spent-from height, one per block
		readers = 3
	)
	d := New()
	for h := uint64(0); h < k; h++ {
		if err := d.Connect(h, blocks, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Block b spends position b at every base height, highest first.
	spendsOf := make([][]Spend, blocks)
	for b := range spendsOf {
		for h := k - 1; h >= 0; h-- {
			spendsOf[b] = append(spendsOf[b], Spend{Height: uint64(h), Pos: uint32(b)})
		}
	}
	const total = int64(k * blocks)
	// committed is how many blocks the tip says are in.
	committed := func() int {
		tip, _ := d.Tip()
		return int(tip) + 1 - k
	}

	var stop atomic.Bool
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([]ProbeResult, k)
			for !stop.Load() {
				b1 := committed()
				next := min(b1, blocks-1)
				res = d.IsUnspentBatchInto(spendsOf[next], res)
				unspent := 0
				for _, pr := range res {
					if pr.Err != nil {
						fail("probe block %d: %v", next, pr.Err)
						return
					}
					if pr.Unspent {
						unspent++
					}
				}
				if unspent != 0 && unspent != k {
					fail("batch over block %d's spends saw %d of %d unspent", next, unspent, k)
				}
				c := d.UnspentCount()
				b2 := committed()
				if (total-c)%k != 0 {
					fail("UnspentCount %d is not a whole number of commits", c)
				} else if j := int((total - c) / k); j < b1 || j > b2 {
					fail("UnspentCount %d = %d commits, outside [%d, %d]", c, j, b1, b2)
				}
			}
		}()
	}
	for b := 0; b < blocks && !stop.Load(); b++ {
		if err := d.Connect(uint64(k+b), 0, spendsOf[b]); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("block %d: %v", b, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := d.UnspentCount(); got != 0 {
		t.Fatalf("UnspentCount %d after spending everything", got)
	}
}
