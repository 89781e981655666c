// Package node assembles full validator nodes from the substrates:
// chain storage, status data, script engine, and validator. It also
// provides the Initial Block Download (IBD) drivers the paper's
// IBD experiments run (§III-B, §VI-D): a node pulls serialized blocks
// from a source chain store, decodes them, validates them, and applies
// them, with per-period time accounting.
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ebv/internal/admission"
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/core"
	"ebv/internal/forkchoice"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/kvstore"
	"ebv/internal/mempool"
	"ebv/internal/pipeline"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/statesync"
	"ebv/internal/statusdb"
	"ebv/internal/utxoset"
	"ebv/internal/vcache"
)

// Config configures a node.
type Config struct {
	// Dir is the node's data directory.
	Dir string
	// MemLimit is the status-data memory budget in bytes — the knob
	// the paper fixes at 500 MB for both systems (§VI-C). For the
	// baseline it bounds the UTXO database's memtable plus block
	// cache; EBV's bit-vector set is not artificially bounded (it
	// simply stays far below the limit, which is the result).
	MemLimit int
	// ReadLatency is injected into the baseline's database reads that
	// miss the cache, modeling the paper's HDD (DESIGN.md,
	// substitution 4). Zero disables injection.
	ReadLatency time.Duration
	// Scheme verifies signatures. Nil means sig.SimSig{}.
	Scheme sig.Scheme
	// Optimize is kept only so existing configurations compile;
	// nothing reads it.
	//
	// Deprecated: ignored — the status database always stores the
	// paper's sparse-optimized vectors.
	Optimize bool
	// StatusShards is kept only so existing configurations compile;
	// nothing reads it.
	//
	// Deprecated: ignored — the status database has one lock.
	StatusShards int
	// ParallelValidation, when > 1, runs the full EBV proof-
	// verification pipeline — consistency, sighash, EV and SV — on
	// that many goroutines per block (core.WithParallelValidation).
	ParallelValidation int
	// VerifyCacheSize, when > 0 on a node with Admission, installs a
	// verified-proof cache of that many entries on the EBV validator
	// (core.WithVerificationCache): inputs already verified at mempool
	// admission skip the EV Merkle fold and SV script execution at
	// block validation. Admission is the cache's only writer, so a node
	// without it gets no cache. 0 disables the cache.
	VerifyCacheSize int
	// PipelineDepth, when > 0, replays IBD through the cross-block
	// pipeline (internal/pipeline): structure checks and EV+SV proof
	// verification of up to PipelineDepth future blocks overlap the
	// sequential UV probes and commit of the current one. RunIBDEBV
	// at 0 replays one block at a time. Failure behavior is identical
	// to the sequential path (same first error at the same height).
	PipelineDepth int
	// FastSync, when non-nil with peers configured, bootstraps an
	// empty EBV node from peer snapshots inside NewEBVNode before the
	// validator comes up (and resumes an interrupted bootstrap found
	// under Dir). Dir and SnapshotPath are derived from the node's own
	// layout; the remaining fields pass through to statesync.FastSync.
	FastSync *statesync.Config
	// Admission, when non-nil, attaches a mempool and the concurrent
	// transaction-admission front end (internal/admission) to the node:
	// Pool and Admission are populated, connected blocks evict included
	// and conflicting transactions, and reorg disconnects run the
	// pool's stale-proof policy. EBV nodes only: the baseline has no
	// transaction tier, and NewBitcoinNode rejects a non-nil value.
	Admission *AdmissionConfig
}

// AdmissionConfig couples the mempool bounds (count cap, byte cap,
// static fee floor) with the admission service knobs (batch size and
// window, queue depth, per-source rate limits).
type AdmissionConfig struct {
	Pool    mempool.Config
	Service admission.Config
}

func (c Config) scheme() sig.Scheme {
	if c.Scheme == nil {
		return sig.SimSig{}
	}
	return c.Scheme
}

// BitcoinNode is the baseline validator node.
type BitcoinNode struct {
	Chain     *chainstore.Store
	UTXO      *utxoset.Set
	Validator *core.BitcoinValidator
	// Forks, when set via EnableForkChoice, routes competing-branch
	// blocks through the reorg engine.
	Forks *forkchoice.Engine
	db    *kvstore.DB
}

// NewBitcoinNode creates or reopens a baseline node under cfg.Dir.
// The baseline validates blocks only; it has no mempool, so
// cfg.Admission must be nil.
func NewBitcoinNode(cfg Config) (*BitcoinNode, error) {
	if cfg.Admission != nil {
		return nil, errors.New("node: the baseline has no transaction tier; Config.Admission is for EBV nodes")
	}
	memLimit := cfg.MemLimit
	if memLimit <= 0 {
		memLimit = 64 << 20
	}
	db, err := kvstore.Open(filepath.Join(cfg.Dir, "utxodb"), kvstore.Options{
		MemTableBytes:   memLimit / 4,
		BlockCacheBytes: memLimit - memLimit/4,
		ReadLatency:     cfg.ReadLatency,
	})
	if err != nil {
		return nil, err
	}
	set, err := utxoset.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	chain, err := chainstore.Open(filepath.Join(cfg.Dir, "chain"))
	if err != nil {
		db.Close()
		return nil, err
	}
	n := &BitcoinNode{Chain: chain, UTXO: set, db: db}
	n.Validator = core.NewBitcoinValidator(set, script.NewEngine(cfg.scheme()), chain)
	return n, nil
}

// SubmitBlock validates and stores one block, persisting its undo
// record (the spent entries) for a later DisconnectTip.
func (n *BitcoinNode) SubmitBlock(b *blockmodel.ClassicBlock) (*core.Breakdown, error) {
	return n.submit(b, nil)
}

// SubmitBlockRaw validates and stores one serialized block. The
// original wire bytes — not a re-serialization — are appended to the
// chain; the encoding is canonical, so the two are byte-identical.
func (n *BitcoinNode) SubmitBlockRaw(raw []byte) (*core.Breakdown, error) {
	blk, err := blockmodel.DecodeClassicBlock(raw)
	if err != nil {
		return nil, err
	}
	return n.submit(blk, raw)
}

// submit connects b and appends raw (re-encoding b when raw is nil).
func (n *BitcoinNode) submit(b *blockmodel.ClassicBlock, raw []byte) (*core.Breakdown, error) {
	bd, undo, err := n.Validator.ConnectBlockUndo(b)
	if err != nil {
		return bd, err
	}
	w := time.Now()
	if err := n.db.Put(undoKey(b.Header.Height), utxoset.EncodeUndo(undo)); err != nil {
		return bd, err
	}
	if raw == nil {
		raw = b.Encode(nil)
	}
	if err := n.Chain.Append(b.Header, raw); err != nil {
		return bd, err
	}
	bd.Other += time.Since(w)
	return bd, nil
}

// undoKey namespaces a block's undo record in the UTXO database
// ("!" keys are reserved; outpoint keys are always 36 raw bytes).
func undoKey(height uint64) []byte {
	k := []byte("!undo-")
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], height)
	return append(k, buf[:]...)
}

// DisconnectTip reverses the node's tip block during a reorg.
func (n *BitcoinNode) DisconnectTip() error {
	_, err := n.disconnectTip()
	return err
}

// disconnectTip reverses the tip block and returns its bytes, which
// the fork-choice engine keeps for rollback and re-indexing.
func (n *BitcoinNode) disconnectTip() ([]byte, error) {
	tip, ok := n.Chain.TipHeight()
	if !ok {
		return nil, fmt.Errorf("node: disconnect on empty chain")
	}
	raw, err := n.Chain.BlockBytes(tip)
	if err != nil {
		return nil, err
	}
	blk, err := blockmodel.DecodeClassicBlock(raw)
	if err != nil {
		return nil, err
	}
	undoRaw, err := n.db.Get(undoKey(tip))
	if err != nil {
		return nil, fmt.Errorf("node: missing undo record for %d: %w", tip, err)
	}
	undo, err := utxoset.DecodeUndo(undoRaw)
	if err != nil {
		return nil, err
	}
	if err := n.Validator.DisconnectBlock(blk, undo); err != nil {
		return nil, err
	}
	if err := n.Chain.Truncate(int(tip)); err != nil {
		return nil, err
	}
	if err := n.db.Delete(undoKey(tip)); err != nil {
		return nil, err
	}
	return raw, nil
}

// DBStats exposes the UTXO database's counters.
func (n *BitcoinNode) DBStats() kvstore.Stats { return n.db.Stats() }

// SetReadLatency changes the simulated disk latency at runtime
// (experiments sync without it and measure with it).
func (n *BitcoinNode) SetReadLatency(d time.Duration) { n.db.SetReadLatency(d) }

// StatusMemUsage reports the resident bytes of the node's status data
// (memtable + block cache + table metadata).
func (n *BitcoinNode) StatusMemUsage() int64 { return int64(n.db.MemUsage()) }

// Close flushes and closes the node's stores.
func (n *BitcoinNode) Close() error {
	err1 := n.db.Close()
	err2 := n.Chain.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// EBVNode is the efficient-block-validation node.
type EBVNode struct {
	Chain     *chainstore.Store
	Status    *statusdb.DB
	Validator *core.EBVValidator
	// FastSyncResult is set when this node bootstrapped (or resumed a
	// bootstrap) via Config.FastSync.
	FastSyncResult *statesync.Result
	// Forks, when set via EnableForkChoice, routes competing-branch
	// blocks through the reorg engine.
	Forks *forkchoice.Engine
	// Pool and Admission are set when Config.Admission is non-nil.
	// Pool maintains an O(1) leaf-hash index (LookupByLeaf) and
	// satisfies relay.TxSource, so an EBV node with a mempool can be
	// wired into compact block relay (p2p.Config.Relay = node.Pool).
	Pool        *mempool.Pool
	Admission   *admission.Service
	statusPth   string
	pipeDepth   int
	pipeWorkers int
}

// NewEBVNode creates or reopens an EBV node under cfg.Dir. A snapshot
// of the bit-vector set written by Close is reloaded on reopen; it
// must match the stored chain's tip.
func NewEBVNode(cfg Config) (*EBVNode, error) {
	chain, err := chainstore.Open(filepath.Join(cfg.Dir, "chain"))
	if err != nil {
		return nil, err
	}
	status := statusdb.New()
	n := &EBVNode{Chain: chain, Status: status, statusPth: filepath.Join(cfg.Dir, "status.snapshot")}
	if err := status.LoadFile(n.statusPth); err != nil && !os.IsNotExist(err) {
		chain.Close()
		return nil, fmt.Errorf("node: %w; delete %s to resync", err, n.statusPth)
	}
	// Fast bootstrap: a fresh node (or one with an interrupted
	// bootstrap persisted under Dir) pulls a verified snapshot from
	// its peers instead of replaying blocks. Runs before the tip
	// check so a node killed mid-install comes back consistent.
	if cfg.FastSync != nil && len(cfg.FastSync.Peers) > 0 {
		fsDir := filepath.Join(cfg.Dir, "statesync")
		_, statErr := os.Stat(fsDir)
		pending := statErr == nil
		if chain.Count() == 0 || pending {
			fsCfg := *cfg.FastSync
			fsCfg.Dir = fsDir
			fsCfg.SnapshotPath = n.statusPth
			res, err := statesync.FastSync(chain, status, fsCfg)
			if err != nil {
				chain.Close()
				return nil, fmt.Errorf("node: fast sync: %w", err)
			}
			n.FastSyncResult = res
		}
	}
	// The snapshot and chain must describe the same tip.
	sTip, sOK := status.Tip()
	cTip, cOK := chain.TipHeight()
	if sOK != cOK || (sOK && sTip != cTip) {
		chain.Close()
		return nil, fmt.Errorf("node: status snapshot (tip %d,%v) does not match chain (tip %d,%v); delete %s to resync",
			sTip, sOK, cTip, cOK, cfg.Dir)
	}
	opts := []core.EBVOption{core.WithParallelValidation(cfg.ParallelValidation)}
	if cfg.VerifyCacheSize > 0 && cfg.Admission != nil {
		opts = append(opts, core.WithVerificationCache(vcache.New(cfg.VerifyCacheSize)))
	}
	n.Validator = core.NewEBVValidator(status, script.NewEngine(cfg.scheme()), chain, opts...)
	n.pipeDepth = cfg.PipelineDepth
	n.pipeWorkers = cfg.ParallelValidation
	// Disconnects recreate fully spent vectors; resolve output counts
	// from the stored blocks, memoized by header hash — a reorg can
	// replace the block at a height, so a height-keyed memo would serve
	// the abandoned branch's count.
	counts := make(map[hashx.Hash]int)
	n.Validator.SetBlockOutputsFunc(func(height uint64) int {
		hdr, ok := chain.Header(height)
		if !ok {
			return 0
		}
		key := hdr.Hash()
		if c, ok := counts[key]; ok {
			return c
		}
		raw, err := chain.BlockBytes(height)
		if err != nil {
			return 0
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return 0
		}
		counts[key] = blk.TotalOutputs()
		return counts[key]
	})
	if cfg.Admission != nil {
		n.Pool = mempool.New(n.Validator, cfg.Admission.Pool)
		n.Admission = admission.New(&admission.EBVBackend{Pool: n.Pool, Validator: n.Validator}, cfg.Admission.Service)
	}
	return n, nil
}

// DisconnectTip reverses the node's tip block during a reorg. EBV
// needs no stored undo data: the tip block's own input bodies say
// which bits to restore.
func (n *EBVNode) DisconnectTip() error {
	_, err := n.disconnectTip()
	return err
}

// disconnectTip reverses the tip block and returns its bytes (see
// BitcoinNode.disconnectTip).
func (n *EBVNode) disconnectTip() ([]byte, error) {
	tip, ok := n.Chain.TipHeight()
	if !ok {
		return nil, fmt.Errorf("node: disconnect on empty chain")
	}
	raw, err := n.Chain.BlockBytes(tip)
	if err != nil {
		return nil, err
	}
	blk, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		return nil, err
	}
	if err := n.Validator.DisconnectBlock(blk); err != nil {
		return nil, err
	}
	if err := n.Chain.Truncate(int(tip)); err != nil {
		return nil, err
	}
	if n.Pool != nil {
		// EBV reorg policy: proofs anchored in the lost branch go stale
		// (ErrStaleProof semantics), nothing is re-admitted.
		n.Pool.BlockDisconnected(blk)
	}
	return raw, nil
}

// SubmitBlock validates and stores one block.
func (n *EBVNode) SubmitBlock(b *blockmodel.EBVBlock) (*core.Breakdown, error) {
	return n.submit(b, nil, nil)
}

// SubmitBlockRaw validates and stores one serialized block on the
// wire-speed path: the block is decoded with a pooled ingest scratch
// (zero-copy, aliasing raw), validated with that scratch's buffers,
// and the original wire bytes — not a re-serialization — are appended
// to the chain. raw must not be mutated during the call; the encoding
// is canonical, so the stored bytes equal what SubmitBlock would
// store.
func (n *EBVNode) SubmitBlockRaw(raw []byte) (*core.Breakdown, error) {
	s := ingest.Get()
	defer s.Release()
	blk, err := s.DecodeEBVBlock(raw)
	if err != nil {
		return nil, err
	}
	return n.submit(blk, raw, s)
}

// submit connects b with the optional ingest scratch and appends raw
// (re-encoding b when raw is nil).
func (n *EBVNode) submit(b *blockmodel.EBVBlock, raw []byte, s *ingest.Scratch) (*core.Breakdown, error) {
	bd, err := n.Validator.ConnectBlockIn(b, s)
	if err != nil {
		return bd, err
	}
	w := time.Now()
	if raw == nil {
		raw = b.Encode(nil)
	}
	if err := n.Chain.Append(b.Header, raw); err != nil {
		return bd, err
	}
	bd.Other += time.Since(w)
	if n.Pool != nil {
		// Evict included and conflicting transactions while b is still
		// alive (it may alias a scratch arena owned by the caller).
		n.Pool.BlockConnected(b)
	}
	return bd, nil
}

// StatusMemUsage reports the resident bytes of the bit-vector set.
func (n *EBVNode) StatusMemUsage() int64 { return n.Status.MemUsage() }

// Close snapshots the bit-vector set next to the chain (atomically,
// with a trailing digest — see statusdb.SaveFile) and closes the
// node's stores. The admission service is drained first so no batch
// commits into a closing node.
func (n *EBVNode) Close() error {
	if n.Admission != nil {
		n.Admission.Close()
	}
	saveErr := n.Status.SaveFile(n.statusPth)
	chainErr := n.Chain.Close()
	if saveErr != nil {
		return saveErr
	}
	return chainErr
}

// PeriodStats aggregates IBD work over a run of blocks (the paper
// reports periods of 50,000 mainnet blocks).
type PeriodStats struct {
	StartHeight uint64
	EndHeight   uint64 // inclusive
	Breakdown   core.Breakdown
	Wall        time.Duration // includes decode and storage time
}

// IBDResult is a full IBD run's per-period records.
type IBDResult struct {
	Periods []PeriodStats
	Total   core.Breakdown
	Wall    time.Duration
}

// RunIBDBitcoin replays the classic chain in src into node, recording
// a PeriodStats every periodLen blocks. progress, if non-nil, is
// called after each period. A node that already holds a chain prefix
// resumes from its own tip.
func RunIBDBitcoin(src *chainstore.Store, node *BitcoinNode, periodLen int, progress func(PeriodStats)) (*IBDResult, error) {
	return runIBD(src, nextHeight(node.Chain), periodLen, progress, node.SubmitBlockRaw)
}

// RunIBDEBV replays the EBV chain in src into node, resuming from the
// node's tip. A node configured with PipelineDepth > 0 replays through
// the cross-block pipeline — proof verification of future blocks
// overlaps the commit of past ones — with identical results and
// identical failure reporting.
func RunIBDEBV(src *chainstore.Store, node *EBVNode, periodLen int, progress func(PeriodStats)) (*IBDResult, error) {
	if node.pipeDepth > 0 {
		return runIBDEBVPipelined(src, node, periodLen, progress)
	}
	return runIBD(src, nextHeight(node.Chain), periodLen, progress, node.SubmitBlockRaw)
}

// runIBDEBVPipelined mirrors runIBD's per-period accounting around
// pipeline.Run. The error contract matches runIBD exactly: source read
// errors return unwrapped, validation errors return wrapped with their
// height, the failing block's partial work lands in Total, and the
// partial period is not flushed.
func runIBDEBVPipelined(src *chainstore.Store, node *EBVNode, periodLen int, progress func(PeriodStats)) (*IBDResult, error) {
	if periodLen <= 0 {
		periodLen = 1 << 62
	}
	res := &IBDResult{}
	startHeight := nextHeight(node.Chain)
	tip, ok := src.TipHeight()
	if !ok || startHeight > tip {
		return res, nil
	}
	cur := PeriodStats{}
	start := time.Now()
	periodStart := start
	periodStartHeight := startHeight
	err := pipeline.Run(src, node.Chain, node.Validator, startHeight, pipeline.Config{
		Depth:   node.pipeDepth,
		Workers: node.pipeWorkers,
		Progress: func(b *blockmodel.EBVBlock, bd *core.Breakdown) {
			if node.Pool != nil {
				// Evict included and conflicting transactions while b
				// is still alive, as submit does.
				node.Pool.BlockConnected(b)
			}
			h := b.Header.Height
			cur.Breakdown.Add(bd)
			res.Total.Add(bd)
			if (h+1)%uint64(periodLen) == 0 || h == tip {
				cur.StartHeight = periodStartHeight
				cur.EndHeight = h
				cur.Wall = time.Since(periodStart)
				res.Periods = append(res.Periods, cur)
				if progress != nil {
					progress(cur)
				}
				cur = PeriodStats{}
				periodStart = time.Now()
				periodStartHeight = h + 1
			}
		},
	})
	if err != nil {
		var be *pipeline.BlockError
		if errors.As(err, &be) {
			if be.Breakdown != nil {
				cur.Breakdown.Add(be.Breakdown)
				res.Total.Add(be.Breakdown)
			}
			if be.Fetch {
				return res, be.Err
			}
			return res, fmt.Errorf("ibd at height %d: %w", be.Height, be.Err)
		}
		return res, err
	}
	res.Wall = time.Since(start)
	return res, nil
}

// nextHeight returns the first height a node still needs.
func nextHeight(chain *chainstore.Store) uint64 {
	tip, ok := chain.TipHeight()
	if !ok {
		return 0
	}
	return tip + 1
}

func runIBD(src *chainstore.Store, startHeight uint64, periodLen int, progress func(PeriodStats), submit func([]byte) (*core.Breakdown, error)) (*IBDResult, error) {
	if periodLen <= 0 {
		periodLen = 1 << 62
	}
	res := &IBDResult{}
	tip, ok := src.TipHeight()
	if !ok || startHeight > tip {
		return res, nil
	}
	cur := PeriodStats{}
	start := time.Now()
	periodStart := start
	periodStartHeight := startHeight
	for h := startHeight; h <= tip; h++ {
		raw, err := src.BlockBytes(h)
		if err != nil {
			return res, err
		}
		bd, err := submit(raw)
		if bd != nil {
			cur.Breakdown.Add(bd)
			res.Total.Add(bd)
		}
		if err != nil {
			return res, fmt.Errorf("ibd at height %d: %w", h, err)
		}
		if (h+1)%uint64(periodLen) == 0 || h == tip {
			cur.StartHeight = periodStartHeight
			cur.EndHeight = h
			cur.Wall = time.Since(periodStart)
			res.Periods = append(res.Periods, cur)
			if progress != nil {
				progress(cur)
			}
			cur = PeriodStats{}
			periodStart = time.Now()
			periodStartHeight = h + 1
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}
