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
//
// The pool keeps each admitted transaction as one owned byte slice,
// its pool-form encoding (StakePos zero), beside a fixed 96-byte record
// of what admission computed: id, fee, output count and spends; the
// size and the fee rate derive from the bytes. No decoded object graph
// outlives admission. BuildTemplate decodes only the transactions it
// selects, compact relay splices the announced stake position into the
// stored bytes (txmodel.SpliceStakePos), and block connect and
// disconnect work from the cached spends.
//
// The entry map is the pool's one id index. Membership probes and the
// compact-relay lookups read it under the pool's read lock, so they
// never wait on one another, only on a writer: a commit, a block
// connect or a disconnect.
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

// entry is one pooled transaction: its pool-form encoding and the
// admission data cached beside it.
type entry struct {
	raw     []byte // pool-form encoding (StakePos 0); owned, never modified
	id      hashx.Hash
	fee     uint64
	spends  []statusdb.Spend
	outputs int32 // output count, BuildTemplate's budget
	heapIdx int32 // position in the fee-rate min-heap
}

// feeRate is the fee per encoded byte.
func (e *entry) feeRate() float64 { return float64(e.fee) / float64(len(e.raw)) }

// feeHeap is a min-heap over the pool's entries by fee rate (lowest
// first, id tie-break for determinism): the eviction side of the fee
// market. BuildTemplate keeps its own descending sort — it reads a
// snapshot, while the heap must mutate in step with the entry map.
type feeHeap []*entry

func (h feeHeap) Len() int { return len(h) }
func (h feeHeap) Less(i, j int) bool {
	if ri, rj := h[i].feeRate(), h[j].feeRate(); ri != rj {
		return ri < rj
	}
	return bytes.Compare(h[i].id[:], h[j].id[:]) < 0
}
func (h feeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}
func (h *feeHeap) Push(x any) {
	e := x.(*entry)
	e.heapIdx = int32(len(*h))
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

	mu         sync.RWMutex
	entries    map[hashx.Hash]*entry
	spent      map[statusdb.Spend]*entry // output -> pooled spender
	byFee      feeHeap
	bytes      int     // summed encoded sizes of pooled transactions
	floor      float64 // current eviction floor (>= cfg.MinFeeRate)
	evictions  int
	staleDrops int
}

// New creates a pool admitting against the given validator's chain
// state.
func New(validator *core.EBVValidator, cfg Config) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:       cfg,
		validator: validator,
		entries:   make(map[hashx.Hash]*entry),
		spent:     make(map[statusdb.Spend]*entry),
		floor:     cfg.MinFeeRate,
	}
}

// Len returns the number of pooled transactions.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.entries)
}

// Bytes returns the summed encoded size of pooled transactions.
func (p *Pool) Bytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.bytes
}

// Contains reports whether id is pooled, under the pool's read lock.
// The answer holds only until the next commit — callers needing an
// authoritative answer must go through Add/CommitBatch, whose
// duplicate check under the write lock decides.
func (p *Pool) Contains(id hashx.Hash) bool {
	p.mu.RLock()
	_, ok := p.entries[id]
	p.mu.RUnlock()
	return ok
}

// LookupByLeaf returns the pool-form encoding (StakePos zero) of the
// pooled transaction whose id — the pool-form tidy leaf hash — is
// leaf, under the pool's read lock. The bytes are the pool's own,
// immutable once admitted, and must not be modified; a removal after
// the call leaves them valid. Like Contains, the answer holds only
// until the next commit, which compact-relay reconstruction tolerates
// (a miss just means requesting that transaction). Satisfies
// relay.TxSource.
func (p *Pool) LookupByLeaf(leaf hashx.Hash) ([]byte, bool) {
	p.mu.RLock()
	e, ok := p.entries[leaf]
	p.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.raw, true
}

// LeafHashes returns a snapshot of every pooled transaction's id
// (pool-form tidy leaf hash), taken under the pool's read lock.
// Satisfies relay.TxSource.
func (p *Pool) LeafHashes() []hashx.Hash {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]hashx.Hash, 0, len(p.entries))
	for id := range p.entries {
		out = append(out, id)
	}
	return out
}

// Evictions returns how many transactions have been evicted by the
// fee market since the pool was created.
func (p *Pool) Evictions() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.evictions
}

// EvictionFloor returns the current fee-rate floor (0 when inactive).
func (p *Pool) EvictionFloor() float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.floor
}

// Add validates tx against the chain state and admits it. The
// transaction id (tidy leaf hash with StakePos zero) is returned. The
// pool stores its own encoding of the pool form; tx is not modified
// and not retained.
func (p *Pool) Add(tx *txmodel.EBVTx) (hashx.Hash, error) {
	// Chain-state validation happens outside the lock: it is the
	// expensive part and touches only the validator's own state.
	if err := p.validator.ValidateTx(tx); err != nil {
		return hashx.ZeroHash, err
	}
	// Pool identity is the pre-packaging form: the miner owns the
	// stake position. A shallow copy takes the zero, and drops the
	// leaf memo it carries if the position changed.
	pf := *tx
	if pf.Tidy.StakePos != 0 {
		pf.Tidy.StakePos = 0
		pf.Tidy.Invalidate()
	}
	e := newEntry(&pf, pf.Encode(make([]byte, 0, pf.EncodedSize())), pf.Tidy.LeafHash())
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addLocked(e)
}

// Candidate is one transaction the admission pipeline has validated
// (core.ValidateTxsBatch), offered to CommitBatch.
type Candidate struct {
	// Tx is the decoded pool form (StakePos 0). It may borrow Raw and
	// a decode arena: the pool reads it only during CommitBatch.
	Tx *txmodel.EBVTx
	// Raw is Tx's encoding. The pool keeps its own copy and never
	// retains Raw.
	Raw []byte
	// ID is Tx's pool id, Tx.Tidy.LeafHash().
	ID hashx.Hash
}

// CommitBatch admits validated candidates, in order, under one lock
// acquisition. errs[i] answers cands[i] exactly as a sequential Add
// would have after the same prefix: the duplicate, conflict, and
// capacity/eviction checks share addLocked with Add, so the batched
// front end and one-at-a-time admission produce identical verdicts
// for the same stream.
func (p *Pool) CommitBatch(cands []Candidate) []error {
	entries := make([]*entry, len(cands))
	for i := range cands {
		c := &cands[i]
		// Building the record and copying the bytes stay outside the
		// lock. A rejected candidate's copy is garbage at once.
		entries[i] = newEntry(c.Tx, bytes.Clone(c.Raw), c.ID)
	}
	errs := make([]error, len(cands))
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range entries {
		_, errs[i] = p.addLocked(e)
	}
	return errs
}

// newEntry builds the record of a validated pool-form transaction tx
// (StakePos 0) with encoding raw, which the entry takes over, and id
// tx's leaf hash. tx is read only here.
func newEntry(tx *txmodel.EBVTx, raw []byte, id hashx.Hash) *entry {
	inSum, _ := tx.InputSum()
	outSum, _ := tx.OutputSum()
	fee := inSum - outSum
	e := &entry{
		raw:     raw,
		id:      id,
		fee:     fee,
		spends:  make([]statusdb.Spend, len(tx.Bodies)),
		outputs: int32(len(tx.Tidy.Outputs)),
		heapIdx: -1,
	}
	for i := range tx.Bodies {
		e.spends[i] = statusdb.Spend{Height: tx.Bodies[i].Height, Pos: tx.Bodies[i].AbsPosition()}
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
				ErrConflict, sp.Height, sp.Pos, other.id.Short())
		}
	}
	if err := p.makeRoomLocked(e); err != nil {
		return hashx.ZeroHash, err
	}
	p.entries[e.id] = e
	heap.Push(&p.byFee, e)
	p.bytes += len(e.raw)
	for _, sp := range e.spends {
		p.spent[sp] = e
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
	rate := e.feeRate()
	if p.floor > 0 && rate <= p.floor {
		return fmt.Errorf("%w: %.6g <= %.6g", ErrBelowEvictionFloor, rate, p.floor)
	}
	for len(p.entries)+1 > p.cfg.MaxTxs || p.bytes+len(e.raw) > p.cfg.MaxBytes {
		if len(p.byFee) == 0 {
			// A single oversized transaction can exceed MaxBytes on its
			// own; nothing to evict.
			return ErrPoolFull
		}
		lowest := p.byFee[0]
		lowRate := lowest.feeRate()
		if lowRate >= rate {
			// Not worth evicting an equal-or-better payer.
			return ErrPoolFull
		}
		heap.Pop(&p.byFee)
		p.dropLocked(lowest)
		p.evictions++
		if lowRate > p.floor {
			p.floor = lowRate
		}
	}
	return nil
}

// dropLocked removes an entry already popped from (or absent from) the
// fee heap: the map, the spend claims and the byte count.
func (p *Pool) dropLocked(e *entry) {
	delete(p.entries, e.id)
	p.bytes -= len(e.raw)
	for _, sp := range e.spends {
		if p.spent[sp] == e {
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

// removeLocked drops an entry still present in the fee heap (block
// eviction, stale-proof drops, revalidation failures).
func (p *Pool) removeLocked(e *entry) {
	if e.heapIdx >= 0 {
		heap.Remove(&p.byFee, int(e.heapIdx))
	}
	p.dropLocked(e)
}

// BuildTemplate selects transactions for the next block: highest fee
// rate first, bounded by maxOutputs (the block's bit-vector budget;
// <=0 means the consensus cap). The coinbase is not included — the
// miner adds it with the collected fees. Each selected transaction is
// a fresh decode of the pooled bytes that the miner owns: packaging
// assigns stake positions in place.
func (p *Pool) BuildTemplate(maxOutputs int) (txs []*txmodel.EBVTx, totalFees uint64) {
	if maxOutputs <= 0 || maxOutputs > blockmodel.MaxBlockOutputs {
		maxOutputs = blockmodel.MaxBlockOutputs
	}
	p.mu.RLock()
	ordered := make([]*entry, 0, len(p.entries))
	for _, e := range p.entries {
		ordered = append(ordered, e)
	}
	p.mu.RUnlock()
	// Entries are immutable, so the sort and the decodes run without
	// the lock, on the snapshot.
	sort.Slice(ordered, func(i, j int) bool {
		if ri, rj := ordered[i].feeRate(), ordered[j].feeRate(); ri != rj {
			return ri > rj
		}
		return bytes.Compare(ordered[i].id[:], ordered[j].id[:]) < 0 // deterministic tie-break
	})
	outputs := 1 // miner's coinbase output
	for _, e := range ordered {
		if outputs+int(e.outputs) > maxOutputs {
			continue
		}
		tx, err := txmodel.DecodeEBVTx(e.raw)
		if err != nil {
			// The pool stores only bytes it encoded or decoded itself.
			panic(fmt.Sprintf("mempool: pooled transaction %s does not decode: %v", e.id.Short(), err))
		}
		outputs += int(e.outputs)
		txs = append(txs, tx)
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
			if e, ok := p.spent[sp]; ok {
				// removeLocked releases every spend claim of the entry,
				// so its other inputs cannot double-count it.
				p.removeLocked(e)
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
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.staleDrops
}
