// Package mempool holds validated, not-yet-mined EBV transactions and
// builds block templates from them.
//
// Admission runs the paper's transaction validation (§IV-D): proof
// consistency, EV against stored headers, UV against the bit-vector
// set, SV through the script engine — all without the UTXO database.
// The pool also enforces what block validation cannot see yet:
// transactions already in the pool must not spend the same output
// (conflict tracking by (height, position)).
//
// BuildTemplate selects transactions by fee rate and hands them to the
// miner, which assigns stake positions at packaging time
// (blockmodel.AssembleEBV).
package mempool

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/hashx"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
)

// Errors returned by Add. Each is a stable sentinel so the admission
// service can map a rejection to a one-byte wire code (see
// internal/admission).
var (
	ErrDuplicate = errors.New("mempool: transaction already present")
	ErrConflict  = errors.New("mempool: conflicts with a pooled transaction")
	ErrPoolFull  = errors.New("mempool: pool is full")
	// ErrBelowEvictionFloor rejects a transaction whose fee rate does
	// not beat the eviction floor: the highest fee rate the pool has
	// evicted since it last had slack. A full pool never accepts below
	// what it just threw away — otherwise an attacker could churn the
	// pool with a stream of equal-fee transactions, evicting honest
	// ones for free (the DoS-resistant shape of Rubin's admission
	// rules).
	ErrBelowEvictionFloor = errors.New("mempool: fee rate below eviction floor")
)

// ErrStaleProof marks an EBV transaction from a disconnected block
// that cannot be re-admitted: its input bodies carry (height,
// position) proofs anchored in the branch that just lost — the paper's
// fake-position hazard in reverse — so re-admitting it would pool a
// transaction whose proofs no longer match any stored header. The
// owner must rebuild proofs against the winning branch and resubmit.
var ErrStaleProof = errors.New("mempool: proof stale after reorg")

// Config bounds the pool.
type Config struct {
	// MaxTxs caps the number of pooled transactions. Default 10000.
	MaxTxs int
	// MaxBytes caps the summed encoded size of pooled transactions —
	// the cap that actually bounds admission memory under load, since
	// proof-carrying EBV transactions vary widely in size. Default
	// 32 MiB.
	MaxBytes int
	// MinFeeRate is the static eviction floor in fee-per-byte: a
	// transaction at or below it is rejected with
	// ErrBelowEvictionFloor even when the pool has room. The dynamic
	// floor raised by fee-market evictions never resets below it.
	// Default 0 (no static floor).
	MinFeeRate float64
}

func (c Config) withDefaults() Config {
	if c.MaxTxs <= 0 {
		c.MaxTxs = 10_000
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 32 << 20
	}
	return c
}

// entry is one pooled transaction with its cached admission data.
type entry struct {
	tx      *txmodel.EBVTx
	id      hashx.Hash
	fee     uint64
	size    int
	feeRate float64 // fee per encoded byte
	spends  []statusdb.Spend
	heapIdx int // position in the fee-rate min-heap
}

// feeHeap is a min-heap over the pool's entries by fee rate (lowest
// first, id tie-break for determinism): the eviction side of the fee
// market. BuildTemplate keeps its own descending sort — it reads a
// snapshot, while the heap must mutate in step with the entry map.
type feeHeap []*entry

func (h feeHeap) Len() int { return len(h) }
func (h feeHeap) Less(i, j int) bool {
	if h[i].feeRate != h[j].feeRate {
		return h[i].feeRate < h[j].feeRate
	}
	return bytes.Compare(h[i].id[:], h[j].id[:]) < 0
}
func (h feeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *feeHeap) Push(x any) {
	e := x.(*entry)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *feeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heapIdx = -1
	*h = old[:n-1]
	return e
}

// Pool is the mempool. Safe for concurrent use.
type Pool struct {
	cfg       Config
	validator *core.EBVValidator

	mu         sync.Mutex
	entries    map[hashx.Hash]*entry
	spent      map[statusdb.Spend]hashx.Hash // output -> pooled spender
	byFee      feeHeap
	bytes      int     // summed encoded sizes of pooled transactions
	floor      float64 // current eviction floor (>= cfg.MinFeeRate)
	evictions  int
	staleDrops int

	// ids mirrors the entry map for lock-free reads: membership probes
	// (the admission service's intake stage sheds resubmit floods
	// without touching the pool lock) and the compact-relay
	// reconstruction path's O(1) leaf-hash lookups. Entries are
	// immutable once admitted, so handing out e.tx without the lock is
	// safe as long as callers treat it as read-only. The locked check
	// in addLocked stays authoritative.
	ids sync.Map // hashx.Hash -> *entry
}

// New creates a pool admitting against the given validator's chain
// state.
func New(validator *core.EBVValidator, cfg Config) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:       cfg,
		validator: validator,
		entries:   make(map[hashx.Hash]*entry),
		spent:     make(map[statusdb.Spend]hashx.Hash),
		floor:     cfg.MinFeeRate,
	}
}

// Len returns the number of pooled transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Bytes returns the summed encoded size of pooled transactions.
func (p *Pool) Bytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Contains reports whether id is pooled, without taking the pool
// lock. It may lag a concurrent add or removal by one commit — callers
// needing an authoritative answer must go through Add/CommitBatch,
// whose locked duplicate check decides.
func (p *Pool) Contains(id hashx.Hash) bool {
	_, ok := p.ids.Load(id)
	return ok
}

// LookupByLeaf returns the pooled transaction whose id — the
// pool-form tidy leaf hash, StakePos zero — is leaf, without taking
// the pool lock. The transaction must be treated as immutable; like
// Contains, the answer may lag a concurrent add or removal by one
// commit, which compact-relay reconstruction tolerates (a miss just
// means requesting that transaction). Satisfies relay.TxSource.
func (p *Pool) LookupByLeaf(leaf hashx.Hash) (*txmodel.EBVTx, bool) {
	v, ok := p.ids.Load(leaf)
	if !ok {
		return nil, false
	}
	return v.(*entry).tx, true
}

// LeafHashes returns a snapshot of every pooled transaction's id
// (pool-form tidy leaf hash), without taking the pool lock. Satisfies
// relay.TxSource.
func (p *Pool) LeafHashes() []hashx.Hash {
	var out []hashx.Hash
	p.ids.Range(func(k, _ any) bool {
		out = append(out, k.(hashx.Hash))
		return true
	})
	return out
}

// Evictions returns how many transactions have been evicted by the
// fee market since the pool was created.
func (p *Pool) Evictions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// EvictionFloor returns the current fee-rate floor (0 when inactive).
func (p *Pool) EvictionFloor() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.floor
}

// Add validates tx against the chain state and admits it. The
// transaction id (tidy leaf hash with StakePos zero) is returned.
func (p *Pool) Add(tx *txmodel.EBVTx) (hashx.Hash, error) {
	// Chain-state validation happens outside the lock: it is the
	// expensive part and touches only the validator's own state.
	if err := p.validator.ValidateTx(tx); err != nil {
		return hashx.ZeroHash, err
	}
	e := newEntry(tx)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addLocked(e)
}

// CommitBatch admits transactions already validated by the admission
// pipeline (core.ValidateTxsBatch), in order, under one lock
// acquisition. Each slot of the returned slices answers txs[i] exactly
// as a sequential Add would have after the same prefix: the duplicate,
// conflict, and capacity/eviction checks share addLocked with Add, so
// the batched front end and one-at-a-time admission produce identical
// verdicts for the same stream.
func (p *Pool) CommitBatch(txs []*txmodel.EBVTx) ([]hashx.Hash, []error) {
	entries := make([]*entry, len(txs))
	for i, tx := range txs {
		entries[i] = newEntry(tx) // per-tx hashing stays outside the lock
	}
	ids := make([]hashx.Hash, len(txs))
	errs := make([]error, len(txs))
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range entries {
		ids[i], errs[i] = p.addLocked(e)
	}
	return ids, errs
}

// newEntry computes the pool form of a validated transaction. Pool
// identity is the pre-packaging form: the miner owns the stake
// position, so it is zeroed here (a mutation, so any memoized leaf
// hash is dropped before the id is computed).
func newEntry(tx *txmodel.EBVTx) *entry {
	if tx.Tidy.StakePos != 0 {
		tx.Tidy.StakePos = 0
		tx.Tidy.Invalidate()
	}
	inSum, _ := tx.InputSum()
	outSum, _ := tx.OutputSum()
	fee := inSum - outSum
	size := tx.EncodedSize()
	e := &entry{
		tx:      tx,
		id:      tx.Tidy.LeafHash(),
		fee:     fee,
		size:    size,
		feeRate: float64(fee) / float64(size),
		heapIdx: -1,
	}
	for i := range tx.Bodies {
		e.spends = append(e.spends, statusdb.Spend{
			Height: tx.Bodies[i].Height,
			Pos:    tx.Bodies[i].AbsPosition(),
		})
	}
	return e
}

// addLocked runs the pool-side admission checks and inserts e. Check
// order: duplicate, conflict, then capacity — a conflicting
// transaction must never trigger evictions on its way to rejection.
func (p *Pool) addLocked(e *entry) (hashx.Hash, error) {
	if _, ok := p.entries[e.id]; ok {
		return e.id, ErrDuplicate
	}
	for _, sp := range e.spends {
		if other, ok := p.spent[sp]; ok {
			return hashx.ZeroHash, fmt.Errorf("%w: output %d:%d already spent by %s",
				ErrConflict, sp.Height, sp.Pos, other.Short())
		}
	}
	if err := p.makeRoomLocked(e); err != nil {
		return hashx.ZeroHash, err
	}
	p.entries[e.id] = e
	p.ids.Store(e.id, e)
	heap.Push(&p.byFee, e)
	p.bytes += e.size
	for _, sp := range e.spends {
		p.spent[sp] = e.id
	}
	return e.id, nil
}

// makeRoomLocked enforces both capacity caps, evicting the
// lowest-fee-rate entries when e pays enough to displace them. Every
// eviction raises the floor to the evictee's fee rate; once raised,
// the floor rejects everything at or below it — even into free space —
// until block activity gives the pool slack again
// (maybeResetFloorLocked).
func (p *Pool) makeRoomLocked(e *entry) error {
	if p.floor > 0 && e.feeRate <= p.floor {
		return fmt.Errorf("%w: %.6g <= %.6g", ErrBelowEvictionFloor, e.feeRate, p.floor)
	}
	for len(p.entries)+1 > p.cfg.MaxTxs || p.bytes+e.size > p.cfg.MaxBytes {
		if len(p.byFee) == 0 {
			// A single oversized transaction can exceed MaxBytes on its
			// own; nothing to evict.
			return ErrPoolFull
		}
		lowest := p.byFee[0]
		if lowest.feeRate >= e.feeRate {
			// Not worth evicting an equal-or-better payer.
			return ErrPoolFull
		}
		heap.Pop(&p.byFee)
		p.dropLocked(lowest)
		p.evictions++
		if lowest.feeRate > p.floor {
			p.floor = lowest.feeRate
		}
	}
	return nil
}

// dropLocked removes an entry already popped from (or absent from) the
// fee heap: the map, the spend claims, the byte count, the id mirror.
func (p *Pool) dropLocked(e *entry) {
	delete(p.entries, e.id)
	p.ids.Delete(e.id)
	p.bytes -= e.size
	for _, sp := range e.spends {
		if p.spent[sp] == e.id {
			delete(p.spent, sp)
		}
	}
}

// maybeResetFloorLocked relaxes the eviction floor once block activity
// (connect, disconnect, revalidation) has given the pool real slack —
// both caps under 7/8 utilization. Evictions themselves never reset
// it: a pool hovering at capacity must keep rejecting below what it
// evicted.
func (p *Pool) maybeResetFloorLocked() {
	if len(p.entries) < p.cfg.MaxTxs-p.cfg.MaxTxs/8 && p.bytes < p.cfg.MaxBytes-p.cfg.MaxBytes/8 {
		p.floor = p.cfg.MinFeeRate
	}
}

// Get returns a pooled transaction by id.
func (p *Pool) Get(id hashx.Hash) (*txmodel.EBVTx, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[id]
	if !ok {
		return nil, false
	}
	return e.tx, true
}

// removeLocked drops an entry still present in the fee heap (block
// eviction, stale-proof drops, revalidation failures).
func (p *Pool) removeLocked(e *entry) {
	if e.heapIdx >= 0 {
		heap.Remove(&p.byFee, e.heapIdx)
	}
	p.dropLocked(e)
}

// BuildTemplate selects transactions for the next block: highest fee
// rate first, bounded by maxOutputs (the block's bit-vector budget;
// <=0 means the consensus cap). The coinbase is not included — the
// miner adds it with the collected fees.
func (p *Pool) BuildTemplate(maxOutputs int) (txs []*txmodel.EBVTx, totalFees uint64) {
	if maxOutputs <= 0 || maxOutputs > blockmodel.MaxBlockOutputs {
		maxOutputs = blockmodel.MaxBlockOutputs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ordered := make([]*entry, 0, len(p.entries))
	for _, e := range p.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].feeRate != ordered[j].feeRate {
			return ordered[i].feeRate > ordered[j].feeRate
		}
		return bytes.Compare(ordered[i].id[:], ordered[j].id[:]) < 0 // deterministic tie-break
	})
	outputs := 1 // miner's coinbase output
	for _, e := range ordered {
		n := len(e.tx.Tidy.Outputs)
		if outputs+n > maxOutputs {
			continue
		}
		outputs += n
		// Hand the miner a copy: packaging assigns stake positions in
		// place and must not mutate the pooled transaction.
		cp := *e.tx
		txs = append(txs, &cp)
		totalFees += e.fee
	}
	return txs, totalFees
}

// BlockConnected removes transactions included in (or conflicting
// with) a newly connected block and returns how many were dropped.
//
// Eviction works purely on the spend claims cached at admission: a
// pooled transaction that was included in the block necessarily has
// every one of its spends claimed by the block (the pool id is the
// leaf hash, which commits to the input bodies and hence the spends),
// and admission rejects standalone coinbases, so every entry has at
// least one spend. Inclusion is therefore a special case of conflict,
// and no tidy re-serialization or leaf hashing per block transaction
// is needed here. Each block spend resolves to its pooled claimant
// through the spent index, so the cost is O(block spends) regardless
// of pool size — a full pool no longer pays a linear scan per block.
func (p *Pool) BlockConnected(b *blockmodel.EBVBlock) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	dropped := 0
	for i, tx := range b.Txs {
		if i == 0 {
			continue
		}
		for j := range tx.Bodies {
			sp := statusdb.Spend{Height: tx.Bodies[j].Height, Pos: tx.Bodies[j].AbsPosition()}
			if id, ok := p.spent[sp]; ok {
				// removeLocked releases every spend claim of the entry,
				// so its other inputs cannot double-count it.
				p.removeLocked(p.entries[id])
				dropped++
			}
		}
	}
	p.maybeResetFloorLocked()
	return dropped
}

// BlockDisconnected handles a reorg's disconnect of b. The block's own
// transactions are NOT re-admitted: every EBV input body proves
// (height, position) coordinates against a stored header of the losing
// branch, and after the switch those headers are gone or replaced.
// Each one is counted as a stale-proof drop (see ErrStaleProof).
// Pooled transactions whose cached spends point at outputs created at
// or above the disconnected height are evicted for the same reason.
// Returns how many block transactions were dropped as stale.
func (p *Pool) BlockDisconnected(b *blockmodel.EBVBlock) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	stale := len(b.Txs) - 1 // every non-coinbase tx had proofs into the lost branch
	if stale < 0 {
		stale = 0
	}
	p.staleDrops += stale
	for _, e := range p.entries {
		for _, sp := range e.spends {
			if sp.Height >= b.Header.Height {
				p.removeLocked(e)
				p.staleDrops++
				break
			}
		}
	}
	p.maybeResetFloorLocked()
	return stale
}

// StaleProofDrops returns how many transactions have been dropped (or
// refused re-admission) because their proofs went stale in a reorg.
func (p *Pool) StaleProofDrops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.staleDrops
}
