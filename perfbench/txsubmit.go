package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/admission"
	"ebv/internal/chainstore"
	"ebv/internal/mempool"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
)

const (
	// submitWindow is how many spends each connection keeps in flight,
	// like a wallet backend that waits for each txack.
	submitWindow = 64
	// roundTxs is one round's corpus slice: below the shipped mempool
	// cap (10000 transactions), so every valid spend is admitted
	// rather than refused for capacity. Nothing is mined, so each round
	// starts from an empty pool.
	roundTxs = 8000
	// setupRepeats is how many times a workload sets up per run;
	// setup_s is their median.
	setupRepeats = 3
)

// runTxSubmit is the tx_submit workload: a closed loop over at most
// nproc TCP connections to one serving node, each keeping
// submitWindow fixture spends in flight, in rounds of roundTxs until
// the run's time or the corpus is used up. It loads the p2p/wire read
// path, admission intake and batching, core.ValidateTxsBatch, statusdb
// probe reads, vcache inserts and mempool inserts; statusdb commits,
// chainstore, relay and light stay idle, which the run asserts. Its
// operation is one transaction: throughput_per_s is transactions
// admitted per second and latency_p50_ms the send-to-txack median,
// each the median over rounds.
//
// The traced run rotates three kinds of round: untraced TCP, traced
// TCP (a span per transaction from send to txack, plus the admission,
// wire and runtime counters), and an in-process round that calls
// admission.Service.Submit directly with the same concurrency — the
// gap between its verdict latency and the TCP ack latency is the
// p2p/wire share.
func runTxSubmit(e *env, r *result) error {
	nconns := runtime.NumCPU()
	var setups []float64
	var srv *txServer
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		srv, err = openTxServer(filepath.Join(e.dir, fmt.Sprint("txnode-", i)), e.fx.chainDir, nconns)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.close()
	quiesce()

	n := srv.fn.n
	tipBefore, countBefore := n.Chain.TipHash(), n.Chain.Count()
	statusBefore, vectorsBefore := n.Status.MemUsage(), n.Status.VectorCount()
	cacheBefore := n.Validator.Cache().Stats()

	// Per-round figures; the run reports their medians, so one round
	// that meets a collection or a scheduling stall moves nothing.
	var rates, p50s, p99s, tracedRates, tracedP50s, inprocP50s []float64
	var lay txLayers
	// Rounds cycle through the corpus. A spend comes round again only
	// after more than the verified-proof cache's capacity of other
	// spends, so its key has been evicted and admission stays on the
	// cold path — which the hit count checked below confirms.
	cycle := len(e.fx.spends) / roundTxs
	if cycle*roundTxs <= nodeConfig("").VerifyCacheSize {
		return fmt.Errorf("corpus of %d spends does not outrun the verified-proof cache", len(e.fx.spends))
	}
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < e.seconds; round++ {
		if round > 0 {
			if err := srv.freshPool(); err != nil {
				return err
			}
		}
		off := (round % cycle) * roundTxs
		txs := e.fx.spends[off : off+roundTxs]
		kind := 0 // 0 untraced TCP, 1 traced TCP, 2 in-process
		if e.traced {
			kind = round % 3
		}
		var before runtimeSample
		if kind == 1 {
			before = sampleRuntime()
		}
		var lat []float64
		var codes []byte
		var wall time.Duration
		var err error
		if kind == 2 {
			lat, codes, wall = inprocLoop(n.Admission, txs, nconns*submitWindow)
		} else {
			var tr *tracer
			if kind == 1 {
				tr = e.tr
			}
			lat, codes, wall, err = closedLoop(srv.conns, txs, submitWindow, tr, int64(round*roundTxs))
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		admitted := 0
		for _, c := range codes {
			if c == admission.CodeOK {
				admitted++
			}
		}
		r.attempted += len(txs)
		r.failed += len(txs) - admitted
		r.check(admitted == len(txs), "round %d: %d of %d acks were admits", round, admitted, len(txs))
		r.check(n.Pool.Len() == admitted, "round %d: mempool holds %d, %d admitted", round, n.Pool.Len(), admitted)
		rate := float64(admitted) / wall.Seconds()
		p50, _ := quantile(lat, 0.50)
		p99, ok := quantile(lat, 0.99)
		r.check(ok, "round %d: too few acks for a p99", round)
		switch kind {
		case 0:
			rates, p50s, p99s = append(rates, rate), append(p50s, p50), append(p99s, p99)
		case 1:
			after := sampleRuntime()
			tracedRates, tracedP50s = append(tracedRates, rate), append(tracedP50s, p50)
			lay.alloc += after.allocBytes - before.allocBytes
			lay.gcCPU += after.gcCPU - before.gcCPU
			lay.cpu += after.totalCPU - before.totalCPU
			lay.admitted += admitted
			st := n.Admission.Stats()
			lay.batches += st.Batches
			lay.batchTxs += st.BatchTxs
			lay.rejected += st.Rejected
			lay.submitted += st.Submitted
			ks := srv.fn.gn.KindStats()[wire.Tx]
			lay.txBytesIn += ks.BytesIn
			lay.txMsgsIn += ks.MsgsIn
		case 2:
			inprocP50s = append(inprocP50s, p50)
		}
	}

	// Idle layers: nothing was mined or committed.
	r.check(n.Chain.TipHash() == tipBefore && n.Chain.Count() == countBefore, "tx_submit moved the chain tip")
	r.check(n.Status.MemUsage() == statusBefore && n.Status.VectorCount() == vectorsBefore, "tx_submit committed to statusdb")
	rs := srv.fn.gn.RelayStats()
	r.check(rs.CompactSent+rs.CompactReceived == 0, "tx_submit moved relay traffic")
	cache := n.Validator.Cache().Stats()
	r.check(cache.Hits == 0, "tx_submit hit the verified-proof cache %d times", cache.Hits)

	if !e.traced {
		r.set("setup_s", "s", median(setups))
		r.set("throughput_per_s", "1/s", median(rates))
		r.set("latency_p50_ms", "ms", median(p50s))
		r.set("status_mem_bytes", "B", float64(n.Status.MemUsage()))
		heap, err := srv.heldHeap()
		if err != nil {
			return err
		}
		r.set("node_heap_mb", "MB", heap)
		return nil
	}
	hits, misses := cache.Hits-cacheBefore.Hits, cache.Misses-cacheBefore.Misses
	r.set("vcache.hit_ratio", "1", float64(hits)/float64(hits+misses))
	r.set("statusdb.bytes_per_unspent", "B", float64(n.Status.MemUsage())/float64(n.Status.UnspentCount()))
	r.set("runtime.alloc_bytes_per_tx", "B", float64(lay.alloc)/float64(lay.admitted))
	r.set("runtime.gc_cpu_fraction", "1", lay.gcCPU/lay.cpu)
	r.set("admission.batch_mean_txs", "count", float64(lay.batchTxs)/float64(lay.batches))
	r.set("admission.reject_ratio", "1", float64(lay.rejected)/float64(lay.submitted))
	r.set("admission.inproc_verdict_p50_ms", "ms", median(inprocP50s))
	r.set("wire.tx_bytes_in_per_tx", "B", float64(lay.txBytesIn)/float64(lay.txMsgsIn))
	r.set("submit.ack_p50_ms", "ms", median(p50s))
	r.set("tail.submit_ack_p99_ms", "ms", median(p99s))
	r.set("overhead.throughput_per_s", "ratio", median(tracedRates)/median(rates))
	r.set("overhead.latency_p50_ms", "ratio", median(tracedP50s)/median(p50s))
	return nil
}

// txLayers accumulates the traced TCP rounds' per-layer counts.
type txLayers struct {
	alloc                                  uint64
	gcCPU, cpu                             float64
	admitted                               int
	batches, batchTxs, rejected, submitted int64
	txBytesIn, txMsgsIn                    int64
}

// txServer is tx_submit's serving node and its load-generator
// connections.
type txServer struct {
	dir   string
	src   *chainstore.Store
	fn    *fullNode
	conns []*submitter
}

// openTxServer is tx_submit's set-up: open the fixture as an import
// source, open a node and bring it to the fixture tip, start its
// listener, and handshake nconns submitter connections.
func openTxServer(dir, chainDir string, nconns int) (*txServer, error) {
	src, err := chainstore.Open(chainDir)
	if err != nil {
		return nil, err
	}
	n, err := openNode(dir, src)
	if err != nil {
		src.Close()
		return nil, err
	}
	fn, err := startGossip(n, p2p.EBVChain{Node: n}, gossipConfig(n, false, true))
	if err != nil {
		n.Close()
		src.Close()
		return nil, err
	}
	conns, err := dialSubmitters(fn.gn.Addr(), nconns)
	if err != nil {
		fn.close()
		src.Close()
		return nil, err
	}
	return &txServer{dir: dir, src: src, fn: fn, conns: conns}, nil
}

// freshPool replaces the node's mempool and admission service with
// empty ones built from the shipped configuration, restarts the p2p
// layer on them, and reconnects the submitters. The node's chain,
// statusdb and verified-proof cache carry over.
func (s *txServer) freshPool() error {
	closeSubmitters(s.conns)
	s.fn.gn.Close()
	n := s.fn.n
	n.Admission.Close()
	cfg := nodeConfig("").Admission
	n.Pool = mempool.New(n.Validator, cfg.Pool)
	n.Admission = admission.New(&admission.EBVBackend{Pool: n.Pool, Validator: n.Validator}, cfg.Service)
	fn, err := startGossip(n, p2p.EBVChain{Node: n}, gossipConfig(n, false, true))
	if err != nil {
		return err
	}
	s.fn = fn
	s.conns, err = dialSubmitters(fn.gn.Addr(), len(s.conns))
	return err
}

// close tears the server down; closing it again does nothing.
func (s *txServer) close() error {
	if s.fn == nil {
		return nil
	}
	closeSubmitters(s.conns)
	err := s.fn.close()
	s.fn = nil
	s.src.Close()
	os.RemoveAll(s.dir)
	return err
}

// heldHeap closes the server and returns the live heap its node held —
// chain, statusdb, verified-proof cache and a full round in the pool —
// in MB.
func (s *txServer) heldHeap() (float64, error) {
	held := liveHeap()
	err := s.close()
	return (float64(held) - float64(liveHeap())) / (1 << 20), err
}

// closedLoop submits txs over conns — transaction j on connection
// j mod len(conns) with request id j — each connection keeping at most
// window unacknowledged. It returns each transaction's send-to-ack
// latency in milliseconds, its verdict code, and the wall time from
// the first send to the last ack. A non-nil tr records a span per
// transaction under trace id traceBase+j.
func closedLoop(conns []*submitter, txs [][]byte, window int, tr *tracer, traceBase int64) ([]float64, []byte, time.Duration, error) {
	n := len(txs)
	lat := make([]float64, n)
	codes := make([]byte, n)
	sentAt := make([]atomic.Int64, n)
	errs := make([]error, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for c, s := range conns {
		wg.Add(1)
		go func(c int, s *submitter) {
			defer wg.Done()
			owned := (n - c + len(conns) - 1) / len(conns)
			slots := make(chan struct{}, window)
			readerDone := make(chan error, 1)
			go func() {
				for got := 0; got < owned; got++ {
					id, code, err := s.readAck()
					if err == nil && (id >= uint64(n) || int(id)%len(conns) != c) {
						err = fmt.Errorf("txack for unknown request %d", id)
					}
					if err != nil {
						readerDone <- err
						return
					}
					now := time.Now()
					sent := time.Unix(0, sentAt[id].Load())
					lat[id] = float64(now.Sub(sent)) / 1e6
					codes[id] = code
					tr.add("submit.tx", traceBase+int64(id), 0, sent, now)
					<-slots
				}
				readerDone <- nil
			}()
			for j := c; j < n; j += len(conns) {
				select {
				case slots <- struct{}{}:
				case err := <-readerDone:
					errs[c] = fmt.Errorf("connection %d: %v", c, err)
					return
				}
				sentAt[j].Store(time.Now().UnixNano())
				if err := s.send(uint64(j), txs[j]); err != nil {
					errs[c] = fmt.Errorf("connection %d: send: %w", c, err)
					s.conn.Close()
					<-readerDone
					return
				}
			}
			if err := <-readerDone; err != nil {
				errs[c] = fmt.Errorf("connection %d: %w", c, err)
			}
		}(c, s)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return lat, codes, wall, nil
}

// inprocLoop submits txs straight to the admission service from
// workers goroutines, each waiting for its verdict before the next —
// the closed loop without the wire.
func inprocLoop(svc *admission.Service, txs [][]byte, workers int) ([]float64, []byte, time.Duration) {
	lat := make([]float64, len(txs))
	codes := make([]byte, len(txs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			source := fmt.Sprint("inproc-", w)
			for j := w; j < len(txs); j += workers {
				t := time.Now()
				res := svc.Submit(source, txs[j])
				lat[j] = float64(time.Since(t)) / 1e6
				codes[j] = res.Code
			}
		}(w)
	}
	wg.Wait()
	return lat, codes, time.Since(start)
}
