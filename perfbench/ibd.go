package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ebv/internal/chainstore"
	"ebv/internal/core"
	"ebv/internal/node"
	"ebv/internal/p2p"
)

// runIBDReplay is the ibd_replay workload: fresh nodes replay the whole
// fixture chain through node.RunIBDEBV, one after another, until the
// run's time is up. It loads the cold validation path — chainstore
// reads and appends, ingest decode, core EV+SV+UV with every vcache
// probe a miss, statusdb commits — and keeps p2p, admission, mempool,
// relay and light idle, which each replay asserts. Its operation is a
// whole replay: throughput_per_s is inputs connected per second of
// replay, latency_p50_ms the median replay's wall time.
//
// In the traced run every other replay is driven block by block the
// way runIBD does it, with spans around Store.BlockBytes and
// SubmitBlockRaw; the untraced replays in between give the overhead.
func runIBDReplay(e *env, r *result) error {
	var setups, rates, walls, heaps, tracedRates, tracedWalls []float64
	var statusMem int64
	var lay ibdLayers
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < e.seconds; i++ {
		traced := e.traced && i%2 == 1
		rep, err := replayOnce(e, r, filepath.Join(e.dir, fmt.Sprintf("ibd-%d", i)), traced, &lay)
		if err != nil {
			return err
		}
		setups = append(setups, rep.setup.Seconds())
		if traced {
			tracedRates, tracedWalls = append(tracedRates, rep.inputsPerS), append(tracedWalls, ms(rep.wall))
		} else {
			rates, walls, heaps = append(rates, rep.inputsPerS), append(walls, ms(rep.wall)), append(heaps, rep.heapMB)
		}
		statusMem = rep.statusMem
	}
	if !e.traced {
		r.set("setup_s", "s", median(setups))
		r.set("throughput_per_s", "1/s", median(rates))
		r.set("latency_p50_ms", "ms", median(walls))
		r.set("node_heap_mb", "MB", median(heaps))
		r.set("status_mem_bytes", "B", float64(statusMem))
		return nil
	}
	bd := &lay.breakdown
	total := float64(bd.Total())
	blocks := float64(lay.blocks)
	r.set("chainstore.read_us_per_block", "us", lay.read.Seconds()*1e6/blocks)
	r.set("node.submit_us_per_block", "us", lay.submit.Seconds()*1e6/blocks)
	r.set("core.ev_share", "1", float64(bd.EV)/total)
	r.set("core.uv_share", "1", float64(bd.UV)/total)
	r.set("core.sv_share", "1", float64(bd.SV)/total)
	r.set("core.other_share", "1", float64(bd.DBO+bd.Other)/total)
	r.set("core.us_per_input", "us", total/1e3/float64(bd.Inputs))
	r.set("vcache.hit_ratio", "1", float64(lay.hits)/float64(lay.hits+lay.misses))
	r.set("vcache.evictions_per_block", "count", float64(lay.evictions)/blocks)
	r.set("statusdb.bytes_per_unspent", "B", lay.bytesPerUnspent)
	r.set("runtime.alloc_bytes_per_input", "B", float64(lay.alloc)/float64(bd.Inputs))
	r.set("runtime.gc_cpu_fraction", "1", lay.gcCPU/lay.cpu)
	r.set("overhead.throughput_per_s", "ratio", median(tracedRates)/median(rates))
	r.set("overhead.latency_p50_ms", "ratio", median(tracedWalls)/median(walls))
	return nil
}

// ibdLayers accumulates the traced replays' per-layer counts.
type ibdLayers struct {
	blocks                  int
	read, submit            time.Duration
	breakdown               core.Breakdown
	hits, misses, evictions uint64
	bytesPerUnspent         float64
	alloc                   uint64
	gcCPU, cpu              float64
}

type replay struct {
	setup      time.Duration
	wall       time.Duration // the replay alone: the IBD a joining node waits for
	inputsPerS float64
	statusMem  int64
	heapMB     float64
}

// replayOnce opens the fixture as an import source and a fresh node
// under dir (the measured set-up),
// replays the fixture into it, checks the outcome and the idle layers,
// and measures the heap the node holds.
func replayOnce(e *env, r *result, dir string, traced bool, lay *ibdLayers) (replay, error) {
	defer os.RemoveAll(dir)
	var rep replay
	quiesce()
	t0 := time.Now()
	src, err := chainstore.Open(e.fx.chainDir)
	if err != nil {
		return rep, err
	}
	defer src.Close()
	n, err := openNode(dir, nil)
	if err != nil {
		return rep, err
	}
	fn, err := startGossip(n, p2p.EBVChain{Node: n}, gossipConfig(n, false, true))
	if err != nil {
		n.Close()
		return rep, err
	}
	rep.setup = time.Since(t0)

	r.attempted++
	var inputs int
	var wall time.Duration
	if traced {
		inputs, wall, err = tracedReplay(e, src, n, lay)
	} else {
		t := time.Now()
		var res *node.IBDResult
		res, err = node.RunIBDEBV(src, n, 0, nil)
		wall = time.Since(t)
		if res != nil {
			inputs = res.Total.Inputs
		}
	}
	ok := r.check(err == nil, "replay: %v", err)
	ok = r.check(n.Chain.TipHash() == e.fx.tip, "replay tip %s, fixture tip %s", n.Chain.TipHash().Short(), e.fx.tip.Short()) && ok
	ok = r.check(inputs == e.fx.inputs, "replay connected %d inputs, fixture has %d", inputs, e.fx.inputs) && ok
	if err := n.Status.CheckInvariants(); !r.check(err == nil, "statusdb invariants: %v", err) {
		ok = false
	}
	got := n.Status.UnspentCount()
	ok = r.check(got == e.fx.unspent, "unspent count %d, ground truth %d", got, e.fx.unspent) && ok
	// Idle layers: replay must not touch the wire or admission.
	wire := fn.gn.BytesRead() + fn.gn.BytesWritten()
	ok = r.check(wire == 0, "ibd_replay moved %d wire bytes", wire) && ok
	sub := n.Admission.Stats().Submitted
	ok = r.check(sub == 0 && n.Pool.Len() == 0, "ibd_replay submitted %d txs to admission", sub) && ok
	if !ok {
		r.failed++
	}
	rep.wall = wall
	rep.inputsPerS = float64(inputs) / wall.Seconds()
	rep.statusMem = n.Status.MemUsage()
	if traced {
		st := n.Validator.Cache().Stats()
		lay.hits += st.Hits
		lay.misses += st.Misses
		lay.evictions += st.Evictions
		lay.bytesPerUnspent = float64(rep.statusMem) / float64(got)
	}

	held := liveHeap()
	if err := fn.close(); err != nil {
		return rep, err
	}
	rep.heapMB = (float64(held) - float64(liveHeap())) / (1 << 20)
	return rep, nil
}

// tracedReplay drives the replay block by block, as runIBD does, with
// a span per block and one around each layer call.
func tracedReplay(e *env, src *chainstore.Store, n *node.EBVNode, lay *ibdLayers) (int, time.Duration, error) {
	tip, _ := src.TipHeight()
	before := sampleRuntime()
	start := time.Now()
	inputs := 0
	for h := uint64(0); h <= tip; h++ {
		t0 := time.Now()
		raw, err := src.BlockBytes(h)
		t1 := time.Now()
		if err != nil {
			return inputs, time.Since(start), err
		}
		bd, err := n.SubmitBlockRaw(raw)
		t2 := time.Now()
		parent := e.tr.add("ibd.block", int64(h), 0, t0, t2)
		e.tr.add("chainstore.BlockBytes", int64(h), parent, t0, t1)
		e.tr.add("node.SubmitBlockRaw", int64(h), parent, t1, t2)
		lay.read += t1.Sub(t0)
		lay.submit += t2.Sub(t1)
		lay.blocks++
		if bd != nil {
			lay.breakdown.Add(bd)
			inputs += bd.Inputs
		}
		if err != nil {
			return inputs, time.Since(start), fmt.Errorf("height %d: %w", h, err)
		}
	}
	wall := time.Since(start)
	after := sampleRuntime()
	lay.alloc += after.allocBytes - before.allocBytes
	lay.gcCPU += after.gcCPU - before.gcCPU
	lay.cpu += after.totalCPU - before.totalCPU
	return inputs, wall, nil
}
