package statusdb

import (
	"bytes"
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
// disconnects, snapshot and export round trips — against several shard
// counts and calls CheckInvariants after every single operation, so a
// drifting counter is caught at the op that corrupted it.
func TestStatusDBSoakInvariants(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := NewSharded(true, shards)
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
		})
	}
}

// TestStatusDBConcurrentSoak replays a precomputed valid operation
// sequence on a sharded DB while reader goroutines hammer probes,
// aggregates, and snapshot exports. Run under -race this exercises
// every lock edge: parallel staging vs. concurrent batch probes vs.
// shallow snapshots. The final state must match a single-lock replay
// byte for byte.
func TestStatusDBConcurrentSoak(t *testing.T) {
	// Precompute a valid op sequence on the model.
	type op struct {
		connect  bool
		height   uint64
		nOutputs int
		spends   []Spend
		restores []Restore
	}
	m := newSoakModel()
	rng := rand.New(rand.NewSource(11))
	var ops []op
	for step := 0; step < 300; step++ {
		if rng.Intn(10) < 7 || len(m.history) == 0 {
			n := rng.Intn(16)
			if rng.Intn(5) == 0 {
				n = 128 + rng.Intn(128) // cross the parallel staging threshold
			}
			sp := m.pickSpends(rng, rng.Intn(90)+1)
			ops = append(ops, op{connect: true, height: m.next, nOutputs: n, spends: sp})
			m.applyConnect(n, sp)
		} else {
			h, restores := m.popDisconnect()
			ops = append(ops, op{height: h, restores: restores})
		}
	}

	d := NewSharded(true, 8)
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

	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical to a quiet single-lock replay.
	ref := NewSharded(true, 1)
	for i, o := range ops {
		var err error
		if o.connect {
			err = ref.Connect(o.height, o.nOutputs, o.spends)
		} else {
			err = ref.Disconnect(o.height, o.restores)
		}
		if err != nil {
			t.Fatalf("reference op %d: %v", i, err)
		}
	}
	var got, want bytes.Buffer
	if err := d.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("concurrent sharded replay diverged from the single-lock baseline")
	}
}
