package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/admission"
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/light"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/txmodel"
)

const (
	// mineInterval and txsPerBlock fix the open loop's offered load:
	// txsPerBlock transactions arrive per interval, evenly spaced, and
	// the announcer mines every interval. 40 ms gives a 15-second run
	// 375 blocks. Each
	// block's relay and validation takes milliseconds, far above
	// goroutine wake-ups. The offered 1500 tx/s keeps a 2-CPU host
	// about a quarter busy: at 3000 tx/s every handoff queued and the
	// block latencies followed the host's speed from minute to minute
	// (quartile spread 0.11-0.35 of the median over ten seeds, against
	// 0.04-0.16 here).
	mineInterval = 40 * time.Millisecond
	txsPerBlock  = 60
	// warmupBlocks are mined but left out of the latency samples.
	warmupBlocks = 10
	// receiverSkip: transaction i also goes to the receiver unless
	// i%10 == 9, so every block needs exactly one getblocktxn round
	// trip for the tenth the receiver never saw.
	receiverSkip = 10
	// relayConns is the load generator's connection count per node.
	relayConns = 2
	// deliveryTimeout bounds the wait for the receiver and the light
	// client to reach the announcer's tip once mining stops.
	deliveryTimeout = 20 * time.Second
)

// loadgenPayee is the key loadgen.Prepare pays every spend to; the
// light client watches its address, so every mined block matches.
var loadgenPayee = sig.SimSig{}.KeyFromSeed([]byte("loadgen-payee"))

// runTipRelay is the tip_relay workload: an open loop at steady state.
// Independent users submit fixture spends on a fixed schedule — every
// one to the announcer, an index-chosen 90% also to the receiver — and
// the announcer mines every mineInterval (Pool.BuildTemplate, then
// blockmodel.AssembleEBV, then p2p.Node.SubmitLocal). Compact relay
// carries each block to the receiver, a second full node; a light
// client subscribed to the load generator's payee verifies each pushed
// block. Against the other two workloads, core takes the warm path
// (vcache hits skip EV and SV), statusdb commits run beside admission
// probes, and mempool inserts run beside template builds, block
// evictions and LookupByLeaf reads.
//
// Its operation is one block: throughput_per_s is the spends the
// receiver connected per second, latency_p50_ms
// the median time from the announcer's SubmitLocal to the receiver's
// accept.
//
// The traced run traces the second half of the mining window and not
// the first; the halves give the overhead.
func runTipRelay(e *env, r *result) error {
	// Transaction ids (pool-form leaf hashes) let the miner tell which
	// template transactions the receiver has already admitted.
	ids := make(map[hashx.Hash]int, len(e.fx.spends))
	for i, raw := range e.fx.spends {
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			return err
		}
		ids[tx.Tidy.LeafHash()] = i
	}

	var setups []float64
	var net *relayNet
	for i := 0; i < setupRepeats; i++ {
		if net != nil {
			net.close()
		}
		t0 := time.Now()
		var err error
		net, err = openRelayNet(e, filepath.Join(e.dir, fmt.Sprint("relay-", i)))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer net.close()

	quiesce()
	rec := net.rec
	kindsBefore := net.b.gn.KindStats()
	txInBefore := net.a.gn.KindStats()[wire.Tx]
	cacheBefore := net.b.n.Validator.Cache().Stats()
	rtBefore := sampleRuntime()
	load := newOpenLoop(e.fx.spends, net.toA, net.toB)
	defer func() {
		closeSubmitters(net.toA)
		closeSubmitters(net.toB)
		load.readers.Wait()
	}()
	start := time.Now().Add(10 * time.Millisecond)
	stop := start.Add(e.seconds)
	traceFrom := time.Time{}
	if e.traced {
		traceFrom = start.Add(e.seconds / 2)
	}
	go load.run(start, stop)
	mineErr := net.mine(ids, load, start, stop, traceFrom)
	sent := load.wait()
	rtAfter := sampleRuntime()
	if mineErr != nil {
		return mineErr
	}
	tipHash := net.a.n.Chain.TipHash()
	delivered := waitFor(deliveryTimeout, func() bool {
		return net.b.n.Chain.TipHash() == tipHash && net.lc.Headers().TipHash() == tipHash && rec.lightCount() == len(rec.blocks)
	})
	r.check(delivered, "receiver or light client never reached the announcer's tip")
	if err := load.drainAcks(deliveryTimeout); err != nil {
		return err
	}

	// Output checks: every ack an admit, every block delivered with the
	// announcer's hash, no relay fallback, no light verify failure.
	okA, okB, sentB := load.outcome(sent)
	r.attempted += sent + sentB + 2*len(rec.blocks)
	r.failed += sent - okA + sentB - okB
	r.check(okA == sent && okB == sentB, "acks: announcer %d/%d admits, receiver %d/%d", okA, sent, okB, sentB)
	var peerMS, lightMS, tracedPeerMS, tracedLightMS []float64
	var txsMined, spends, tracedSpends int
	var lastPeer, lastTracedPeer time.Time
	for i, b := range rec.blocks {
		peerAt, peerHash, okP := rec.peer(b.height)
		lightAt, lightHash, okL := rec.light(b.height)
		good := okP && okL && peerHash == b.hash && lightHash == b.hash
		if !r.check(good, "block %d: receiver %v/%s, light %v/%s, announcer %s", b.height, okP, peerHash.Short(), okL, lightHash.Short(), b.hash.Short()) {
			r.failed++
			continue
		}
		txsMined += b.txs
		if b.traced {
			tracedSpends += b.txs - 1
			lastTracedPeer = peerAt
		} else {
			spends += b.txs - 1
			lastPeer = peerAt
		}
		if i < warmupBlocks {
			continue
		}
		p, l := ms(peerAt.Sub(b.mined)), ms(lightAt.Sub(b.mined))
		if b.traced {
			tracedPeerMS, tracedLightMS = append(tracedPeerMS, p), append(tracedLightMS, l)
		} else {
			peerMS, lightMS = append(peerMS, p), append(lightMS, l)
		}
	}
	ls := net.lc.Stats()
	rs := net.b.gn.RelayStats()
	r.check(ls.FullBlockDownloads == 0 && ls.VerifyFailures == 0, "light client: %d full-block downloads, %d verify failures", ls.FullBlockDownloads, ls.VerifyFailures)
	r.check(rs.Fallbacks == 0, "receiver: %d relay fallbacks", rs.Fallbacks)
	r.failed += int(ls.VerifyFailures + uint64(rs.Fallbacks))

	kinds := net.b.gn.KindStats()
	delta := func(k byte) p2p.KindStat {
		a, b := kinds[k], kindsBefore[k]
		return p2p.KindStat{MsgsIn: a.MsgsIn - b.MsgsIn, BytesIn: a.BytesIn - b.BytesIn, MsgsOut: a.MsgsOut - b.MsgsOut, BytesOut: a.BytesOut - b.BytesOut}
	}
	var relayBytes int64
	for _, k := range []byte{wire.Inv, wire.Block, wire.CmpctBlock, wire.BlockTxn} {
		relayBytes += delta(k).BytesIn
	}
	for _, k := range []byte{wire.GetBlockTxn, wire.GetData} {
		relayBytes += delta(k).BytesOut
	}
	ackMS, tracedAckMS := load.ackLatencies(sent, start.Add(warmupBlocks*mineInterval), net.traceAt)
	blocks := float64(len(rec.blocks))

	// Spends the receiver connected per second, from the start of the
	// window (or of its traced half) to the receiver's accept of the
	// last block in it: a receiver that falls behind the offered load
	// stretches the window.
	plainRate := float64(spends) / lastPeer.Sub(start).Seconds()
	statusMem, unspent := net.b.n.Status.MemUsage(), net.b.n.Status.UnspentCount()

	if !e.traced {
		heap := net.receiverHeap()
		r.set("setup_s", "s", median(setups))
		r.set("throughput_per_s", "1/s", plainRate)
		p50, _ := quantile(peerMS, 0.50)
		r.set("latency_p50_ms", "ms", p50)
		r.set("node_heap_mb", "MB", heap)
		r.set("status_mem_bytes", "B", float64(statusMem))
		return nil
	}
	ackP50, _ := quantile(ackMS, 0.50)
	r.set("submit.ack_p50_ms", "ms", ackP50)
	lightP50, _ := quantile(lightMS, 0.50)
	r.set("light.mined_to_verified_p50_ms", "ms", lightP50)
	r.set("relay.wire_bytes_per_tx", "B", float64(relayBytes)/float64(txsMined))
	txIn := net.a.gn.KindStats()[wire.Tx]
	r.set("wire.tx_bytes_in_per_tx", "B", float64(txIn.BytesIn-txInBefore.BytesIn)/float64(txIn.MsgsIn-txInBefore.MsgsIn))
	r.set("statusdb.bytes_per_unspent", "B", float64(statusMem)/float64(unspent))
	r.set("runtime.alloc_bytes_per_tx", "B", float64(rtAfter.allocBytes-rtBefore.allocBytes)/float64(txsMined))
	r.set("runtime.gc_cpu_fraction", "1", (rtAfter.gcCPU-rtBefore.gcCPU)/(rtAfter.totalCPU-rtBefore.totalCPU))
	cache := net.b.n.Validator.Cache().Stats()
	hits, misses := cache.Hits-cacheBefore.Hits, cache.Misses-cacheBefore.Misses
	r.set("vcache.hit_ratio", "1", float64(hits)/float64(hits+misses))
	r.set("vcache.evictions_per_block", "count", float64(cache.Evictions-cacheBefore.Evictions)/blocks)
	as := net.a.n.Admission.Stats()
	r.set("admission.batch_mean_txs", "count", float64(as.BatchTxs)/float64(as.Batches))
	r.set("admission.reject_ratio", "1", float64(as.Rejected)/float64(as.Submitted))
	r.set("mempool.build_template_ms", "ms", median(e.tr.durations("mempool.BuildTemplate")))
	r.set("blockmodel.assemble_ms", "ms", median(e.tr.durations("blockmodel.AssembleEBV")))
	r.set("node.announcer_submit_ms", "ms", median(e.tr.durations("p2p.SubmitLocal")))
	r.set("node.receiver_accept_ms", "ms", median(e.tr.durations("receiver.SubmitRaw")))
	r.set("relay.announce_bytes_per_block", "B", float64(delta(wire.CmpctBlock).BytesIn)/blocks)
	r.set("relay.txns_requested_per_block", "count", float64(rs.TxnsRequested)/blocks)
	r.set("relay.reconstructed_ratio", "1", float64(rs.Reconstructed)/float64(rs.CompactReceived))
	r.set("relay.fallbacks", "count", float64(rs.Fallbacks))
	r.set("lightserve.match_us_per_block", "us", float64(net.a.gn.LightStats().MatchNanos)/1e3/blocks)
	r.set("light.verify_ms_per_block", "ms", float64(ls.VerifyNanos)/1e6/float64(ls.BlocksVerified))
	r.set("light.push_to_verify_ms", "ms", float64(ls.PushToVerifyNanos)/1e6/float64(ls.BlocksVerified))
	late, _ := quantile(load.late[:sent], 0.99)
	r.set("loadgen.late_ms_p99", "ms", late)
	// Tails too unsteady from run to run to gate on (see README.md),
	// over the whole window: half of one holds too few blocks.
	r.tail("tail.mined_to_peer_connected_p95_ms", "ms", append(peerMS, tracedPeerMS...), 0.95)
	r.tail("tail.mined_to_light_verified_p95_ms", "ms", append(lightMS, tracedLightMS...), 0.95)
	r.tail("tail.submit_ack_p99_ms", "ms", append(ackMS, tracedAckMS...), 0.99)
	r.set("overhead.throughput_per_s", "ratio", float64(tracedSpends)/lastTracedPeer.Sub(net.traceAt).Seconds()/plainRate)
	tracedP50, _ := quantile(tracedPeerMS, 0.50)
	peerP50, _ := quantile(peerMS, 0.50)
	r.set("overhead.latency_p50_ms", "ratio", tracedP50/peerP50)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// minedBlock is one block the announcer mined.
type minedBlock struct {
	height uint64
	hash   hashx.Hash
	mined  time.Time // just before SubmitLocal
	txs    int
	traced bool
}

// relayRecord collects when and with which hash each block reached the
// receiver and the light client.
type relayRecord struct {
	mu        sync.Mutex
	blocks    []minedBlock
	peerAt    map[uint64]time.Time
	peerHash  map[uint64]hashx.Hash
	lightAt   map[uint64]time.Time
	lightHash map[uint64]hashx.Hash
}

func newRelayRecord() *relayRecord {
	return &relayRecord{
		peerAt: make(map[uint64]time.Time), peerHash: make(map[uint64]hashx.Hash),
		lightAt: make(map[uint64]time.Time), lightHash: make(map[uint64]hashx.Hash),
	}
}

func (rr *relayRecord) onPeer(h uint64, hash hashx.Hash) {
	now := time.Now()
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.peerAt[h], rr.peerHash[h] = now, hash
}

func (rr *relayRecord) onLight(h uint64, hash hashx.Hash) {
	now := time.Now()
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.lightAt[h], rr.lightHash[h] = now, hash
}

func (rr *relayRecord) peer(h uint64) (time.Time, hashx.Hash, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	t, ok := rr.peerAt[h]
	return t, rr.peerHash[h], ok
}

func (rr *relayRecord) light(h uint64) (time.Time, hashx.Hash, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	t, ok := rr.lightAt[h]
	return t, rr.lightHash[h], ok
}

func (rr *relayRecord) lightCount() int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.lightAt)
}

// relayNet is tip_relay's network: announcer, receiver, light client
// and the load generator's connections.
type relayNet struct {
	dir      string
	src      *chainstore.Store
	a, b     *fullNode
	lc       *light.Client
	toA, toB []*submitter
	rec      *relayRecord
	tr       *tracer
	tracing  atomic.Bool // on from the first block of the traced half
	traceAt  time.Time   // when tracing began; zero while off
	miner    sig.PrivateKey
}

// timedChain is the receiver's p2p.EBVChain with a span around
// SubmitRaw — its whole accept path (fork choice, connect, store,
// mempool eviction) — recorded while the traced half of the run is on.
type timedChain struct {
	p2p.EBVChain
	net *relayNet
}

func (c timedChain) SubmitRaw(raw []byte) error {
	t := time.Now()
	err := c.EBVChain.SubmitRaw(raw)
	if c.net.tracing.Load() {
		var h int64
		if hdr, herr := blockmodel.DecodeHeader(raw[:min(len(raw), blockmodel.HeaderSize)]); herr == nil {
			h = int64(hdr.Height)
		}
		c.net.tr.add("receiver.SubmitRaw", h, 0, t, time.Now())
	}
	return err
}

// openRelayNet is tip_relay's set-up: open the fixture as an import
// source, bring announcer and receiver to its tip side by side, start
// both listeners, connect receiver to announcer, handshake the load
// generator's connections, and sync a light client's headers.
func openRelayNet(e *env, dir string) (*relayNet, error) {
	net := &relayNet{dir: dir, rec: newRelayRecord(), tr: e.tr, miner: sig.SimSig{}.KeyFromSeed([]byte("perfbench-miner"))}
	var err error
	if net.src, err = chainstore.Open(e.fx.chainDir); err != nil {
		return nil, err
	}
	var nodes [2]*node.EBVNode
	var errs [2]error
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = openNode(filepath.Join(dir, fmt.Sprint("node-", i)), net.src)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, n := range nodes {
				if n != nil {
					n.Close()
				}
			}
			net.src.Close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	fail := func(err error) (*relayNet, error) {
		net.close()
		return nil, err
	}
	nA, nB := nodes[0], nodes[1]
	var chainB p2p.Chain = p2p.EBVChain{Node: nB}
	if e.traced {
		chainB = timedChain{p2p.EBVChain{Node: nB}, net}
	}
	cfgB := gossipConfig(nB, false, false)
	cfgB.OnBlock = func(h uint64, _ string) {
		if hdr, ok := nB.Chain.Header(h); ok {
			net.rec.onPeer(h, hdr.Hash())
		}
	}
	if net.a, err = startGossip(nA, p2p.EBVChain{Node: nA}, gossipConfig(nA, true, true)); err != nil {
		nB.Close()
		nA.Close()
		net.src.Close()
		return nil, err
	}
	if net.b, err = startGossip(nB, chainB, cfgB); err != nil {
		nB.Close()
		return fail(err)
	}
	if err := net.b.gn.Connect(net.a.gn.Addr()); err != nil {
		return fail(err)
	}
	if !waitFor(10*time.Second, func() bool { return net.a.gn.PeerCount() >= 1 && net.b.gn.PeerCount() >= 1 }) {
		return fail(fmt.Errorf("receiver never connected to announcer"))
	}
	if net.toA, err = dialSubmitters(net.a.gn.Addr(), relayConns); err != nil {
		return fail(err)
	}
	if net.toB, err = dialSubmitters(net.b.gn.Addr(), relayConns); err != nil {
		return fail(err)
	}
	addr := script.AddressOf(loadgenPayee.Public())
	net.lc, err = light.Dial(net.a.gn.Addr(), light.Config{
		Filter: &light.Filter{Patterns: [][]byte{addr[:]}},
		OnBlock: func(h uint64, hash hashx.Hash, _ *blockmodel.EBVBlock) {
			net.rec.onLight(h, hash)
		},
	})
	if err != nil {
		return fail(err)
	}
	select {
	case <-net.lc.Synced():
	case <-net.lc.Done():
		return fail(fmt.Errorf("light client: %v", net.lc.Err()))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("light client header sync timed out"))
	}
	if net.lc.Headers().TipHash() != nA.Chain.TipHash() {
		return fail(fmt.Errorf("light client synced to a different tip"))
	}
	return net, nil
}

// close tears everything down; it tolerates a partial set-up.
func (net *relayNet) close() {
	if net.lc != nil {
		net.lc.Close()
	}
	closeSubmitters(net.toA)
	closeSubmitters(net.toB)
	if net.b != nil {
		net.b.close()
		net.b = nil
	}
	if net.a != nil {
		net.a.close()
	}
	net.src.Close()
	os.RemoveAll(net.dir)
}

// receiverHeap closes the receiver and returns the live heap it held,
// in MB.
func (net *relayNet) receiverHeap() float64 {
	held := liveHeap()
	closeSubmitters(net.toB)
	net.toB = nil
	net.b.close()
	net.b = nil
	return (float64(held) - float64(liveHeap())) / (1 << 20)
}

// mine runs the announcer's miner from start until stop, one block per
// mineInterval: BuildTemplate, keep what the receiver has admitted (or
// was never sent), AssembleEBV, SubmitLocal. Blocks due from traceFrom
// on (when non-zero) are traced.
func (net *relayNet) mine(ids map[hashx.Hash]int, load *openLoop, start, stop, traceFrom time.Time) error {
	a := net.a
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * mineInterval)
		if !due.Before(stop) {
			return nil
		}
		time.Sleep(time.Until(due))
		if !traceFrom.IsZero() && !due.Before(traceFrom) && !net.tracing.Load() {
			net.traceAt = due
			net.tracing.Store(true)
		}
		traced := net.tracing.Load()
		t0 := time.Now()
		pool, _ := a.n.Pool.BuildTemplate(0)
		t1 := time.Now()
		txs := []*txmodel.EBVTx{nil}
		var fees uint64
		for _, tx := range pool {
			i, ok := ids[tx.Tidy.LeafHash()]
			if !ok || !load.receiverHas(i) {
				continue
			}
			in, _ := tx.InputSum()
			out, _ := tx.OutputSum()
			fees += in - out
			txs = append(txs, tx)
		}
		if len(txs) == 1 {
			continue
		}
		tip, _ := a.n.Chain.TipHeight()
		height := tip + 1
		txs[0] = &txmodel.EBVTx{Tidy: txmodel.TidyTx{
			Outputs:  []txmodel.TxOut{{Value: blockmodel.Subsidy(height) + fees, LockScript: script.StandardLock(net.miner)}},
			LockTime: uint32(height),
		}}
		t2 := time.Now()
		blk, err := blockmodel.AssembleEBV(a.n.Chain.TipHash(), height, 0, txs)
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("assemble %d: %w", height, err)
		}
		raw := blk.Encode(nil)
		mined := time.Now()
		err = a.gn.SubmitLocal(raw)
		t4 := time.Now()
		net.rec.mu.Lock()
		net.rec.blocks = append(net.rec.blocks, minedBlock{height: height, hash: blk.Header.Hash(), mined: mined, txs: len(txs), traced: traced})
		net.rec.mu.Unlock()
		if err != nil {
			return fmt.Errorf("submit %d: %w", height, err)
		}
		if traced {
			parent := net.tr.add("mine.block", int64(height), 0, t0, t4)
			net.tr.add("mempool.BuildTemplate", int64(height), parent, t0, t1)
			net.tr.add("blockmodel.AssembleEBV", int64(height), parent, t2, t3)
			net.tr.add("p2p.SubmitLocal", int64(height), parent, mined, t4)
		}
	}
}

// openLoop is the load generator: transaction i is due at
// start + i*gap, goes to the announcer and, unless i%receiverSkip ==
// receiverSkip-1, to the receiver, whatever the node's backlog.
type openLoop struct {
	txs      [][]byte
	toA, toB []*submitter
	gap      time.Duration
	start    time.Time
	late     []float64 // ms the generator sent each transaction after it was due
	ackA     []atomic.Int64
	codeA    []atomic.Int32
	ackB     []atomic.Int32 // verdict code + 1; 0 while unacknowledged
	sent     atomic.Int64
	done     chan struct{}
	readers  sync.WaitGroup

	errMu sync.Mutex
	err   error // first send or protocol failure
}

func newOpenLoop(txs [][]byte, toA, toB []*submitter) *openLoop {
	l := &openLoop{
		txs: txs, toA: toA, toB: toB,
		gap:  mineInterval / txsPerBlock,
		late: make([]float64, len(txs)),
		ackA: make([]atomic.Int64, len(txs)), codeA: make([]atomic.Int32, len(txs)),
		ackB: make([]atomic.Int32, len(txs)),
		done: make(chan struct{}),
	}
	for _, s := range toA {
		l.readers.Add(1)
		go l.read(s, true)
	}
	for _, s := range toB {
		l.readers.Add(1)
		go l.read(s, false)
	}
	return l
}

func (l *openLoop) fail(err error) {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

func (l *openLoop) toReceiver(i int) bool { return i%receiverSkip != receiverSkip-1 }

func (l *openLoop) receiverHas(i int) bool {
	return !l.toReceiver(i) || l.ackB[i].Load() == int32(admission.CodeOK)+1
}

// read consumes one connection's txacks until the connection closes.
func (l *openLoop) read(s *submitter, announcer bool) {
	defer l.readers.Done()
	for {
		id, code, err := s.readAck()
		if err != nil {
			return
		}
		if id >= uint64(len(l.txs)) {
			l.fail(fmt.Errorf("txack for unknown request %d", id))
			return
		}
		if announcer {
			l.codeA[id].Store(int32(code))
			l.ackA[id].Store(time.Now().UnixNano())
		} else {
			l.ackB[id].Store(int32(code) + 1)
		}
	}
}

// run sends transactions on schedule from start until stop.
func (l *openLoop) run(start, stop time.Time) {
	defer close(l.done)
	l.start = start
	for i := range l.txs {
		due := start.Add(time.Duration(i) * l.gap)
		if !due.Before(stop) {
			return
		}
		time.Sleep(time.Until(due))
		l.late[i] = ms(time.Since(due))
		if err := l.toA[i%len(l.toA)].send(uint64(i), l.txs[i]); err != nil {
			l.fail(fmt.Errorf("send to announcer: %w", err))
			return
		}
		if l.toReceiver(i) {
			if err := l.toB[i%len(l.toB)].send(uint64(i), l.txs[i]); err != nil {
				l.fail(fmt.Errorf("send to receiver: %w", err))
				return
			}
		}
		l.sent.Store(int64(i + 1))
	}
	l.fail(fmt.Errorf("corpus of %d spends ran out", len(l.txs)))
}

// wait blocks until the sender stops and returns how many it sent.
func (l *openLoop) wait() int {
	<-l.done
	return int(l.sent.Load())
}

// drainAcks waits until every sent transaction is acknowledged.
func (l *openLoop) drainAcks(d time.Duration) error {
	l.errMu.Lock()
	err := l.err
	l.errMu.Unlock()
	if err != nil {
		return err
	}
	n := int(l.sent.Load())
	if !waitFor(d, func() bool {
		for i := 0; i < n; i++ {
			if l.ackA[i].Load() == 0 || (l.toReceiver(i) && l.ackB[i].Load() == 0) {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("txacks missing after %s", d)
	}
	return nil
}

// outcome counts admits among the first n transactions.
func (l *openLoop) outcome(n int) (okA, okB, sentB int) {
	for i := 0; i < n; i++ {
		if l.codeA[i].Load() == int32(admission.CodeOK) {
			okA++
		}
		if l.toReceiver(i) {
			sentB++
			if l.ackB[i].Load() == int32(admission.CodeOK)+1 {
				okB++
			}
		}
	}
	return okA, okB, sentB
}

// ackLatencies returns the announcer's txack latency, timed from each
// transaction's due time, for transactions due from warm on, split at
// tracedFrom (zero: none traced).
func (l *openLoop) ackLatencies(n int, warm, tracedFrom time.Time) (plain, traced []float64) {
	for i := 0; i < n; i++ {
		due := l.start.Add(time.Duration(i) * l.gap)
		if due.Before(warm) {
			continue
		}
		lat := ms(time.Unix(0, l.ackA[i].Load()).Sub(due))
		if !tracedFrom.IsZero() && !due.Before(tracedFrom) {
			traced = append(traced, lat)
		} else {
			plain = append(plain, lat)
		}
	}
	return plain, traced
}
