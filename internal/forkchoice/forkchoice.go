// Package forkchoice picks the best chain among competing branches
// and switches a node onto it atomically.
//
// The engine keeps a header-tree index over every known competing
// block — parent links, cumulative work derived from Header.Bits
// (expected work 2^Bits per block, so Bits 0 degrades to longest
// chain) — plus a bounded store of side-block and orphan bodies. When
// a branch's cumulative work exceeds the active tip's, the reorg
// executor finds the fork point by walking parent links, disconnects
// the current branch tip-down (EBV needs no undo data: each block's
// own input bodies say which bits to restore, paper §IV-D3), connects
// the new branch through the node's normal validation machinery, and
// — if any block on the new branch fails — rolls back to the exact
// pre-reorg tip and marks the losing branch invalid so it is never
// retried.
//
// Ties (equal work) never reorg: the first-seen branch wins, matching
// Bitcoin's rule and keeping the switch deterministic.
package forkchoice

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

// Chain is the active-chain backend the engine drives. Both node
// types satisfy it through thin adapters (node.ForkChain).
type Chain interface {
	// TipHeight returns the current tip; ok is false for an empty
	// chain.
	TipHeight() (uint64, bool)
	// TipHash returns the tip's block hash (zero for empty).
	TipHash() hashx.Hash
	// Header returns the stored header at a height.
	Header(height uint64) (blockmodel.Header, bool)
	// HeightByHash resolves an active-chain block hash to its height.
	HeightByHash(h hashx.Hash) (uint64, bool)
	// HasBody reports whether the block at height has its body stored
	// (false for fast-synced header-only history).
	HasBody(height uint64) bool
	// BlockBytes returns the serialized block at a height.
	BlockBytes(height uint64) ([]byte, error)
	// Locator returns a block locator over the active chain.
	Locator() []hashx.Hash
	// LocatorFork resolves a peer's locator to the highest shared
	// height.
	LocatorFork(loc []hashx.Hash) (uint64, bool)
	// ConnectRaw decodes, fully validates, and appends a block that
	// extends the current tip.
	ConnectRaw(raw []byte) error
	// DisconnectTip reverses the tip block and returns its serialized
	// bytes (for rollback and for re-indexing the losing branch).
	DisconnectTip() ([]byte, error)
}

// Errors surfaced by ProcessBlock.
var (
	// ErrKnownInvalid reports a block that is (or descends from) a
	// block already found invalid; it is never revalidated.
	ErrKnownInvalid = errors.New("forkchoice: block is on an invalid branch")
	// ErrReorgTooDeep reports a switch refused by the MaxReorgDepth
	// policy cap.
	ErrReorgTooDeep = errors.New("forkchoice: reorg deeper than limit")
	// ErrReorgPastSnapshot reports a fork point below a fast-synced
	// node's snapshot tip: the header-only history there has no bodies,
	// so those blocks can never be disconnected. The node must refuse
	// rather than corrupt its state.
	ErrReorgPastSnapshot = errors.New("forkchoice: reorg crosses fast-synced header-only history")
	// ErrSideBlockMissing reports a branch whose body bytes were
	// evicted from the bounded side store before the switch.
	ErrSideBlockMissing = errors.New("forkchoice: side block evicted, branch incomplete")
	// ErrRollbackFailed reports the one unrecoverable case: a block of
	// the old branch failed to re-connect while unwinding a failed
	// switch. State no longer matches any branch; the node must stop.
	ErrRollbackFailed = errors.New("forkchoice: rollback after failed reorg did not restore the old branch")
)

// Verdict says what ProcessBlock did with a block.
type Verdict int

const (
	// Rejected: the block (or its branch) is invalid.
	Rejected Verdict = iota
	// Duplicate: already known (active chain, side store, or orphan).
	Duplicate
	// Connected: extended the active tip.
	Connected
	// Reorged: triggered a switch to a heavier branch.
	Reorged
	// SideStored: parked on a lighter side branch.
	SideStored
	// Orphaned: parent unknown; the caller should request headers from
	// the sender via a locator.
	Orphaned
)

func (v Verdict) String() string {
	switch v {
	case Rejected:
		return "rejected"
	case Duplicate:
		return "duplicate"
	case Connected:
		return "connected"
	case Reorged:
		return "reorged"
	case SideStored:
		return "side"
	case Orphaned:
		return "orphan"
	}
	return "unknown"
}

// Config bounds and instruments the engine.
type Config struct {
	// MaxReorgDepth caps how many blocks may be disconnected in one
	// switch. Default 128.
	MaxReorgDepth int
	// MaxSideBlocks bounds the side-block/orphan body store. Default
	// 256.
	MaxSideBlocks int
	// MaxPeerOrphans caps one peer's orphan contributions, so a peer
	// spraying unconnectable blocks can only evict its own. Default 32.
	MaxPeerOrphans int
	// Logf, if set, receives reorg and eviction events.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxReorgDepth <= 0 {
		c.MaxReorgDepth = 128
	}
	if c.MaxSideBlocks <= 0 {
		c.MaxSideBlocks = 256
	}
	if c.MaxPeerOrphans <= 0 {
		c.MaxPeerOrphans = 32
	}
	return c
}

// Stats counts engine activity.
type Stats struct {
	Reorgs       int // committed switches
	DeepestReorg int // most blocks disconnected in one switch
	FailedReorgs int // refused or rolled-back switches
	SideBlocks   int // currently stored competing blocks (incl. orphans)
	Orphans      int // currently stored parent-unknown blocks
	Invalid      int // blocks marked invalid and never retried
}

// maxInvalid bounds the invalid-block set; beyond it the set resets
// (the worst case is re-validating an already-rejected block).
const maxInvalid = 4096

// entry is one side-branch block in the header-tree index: its header
// plus the cumulative work of the branch through it.
type entry struct {
	header blockmodel.Header
	work   *big.Int
}

// Engine is the fork-choice engine. Safe for concurrent use; all
// chain mutations happen under its lock, so ConnectRaw/DisconnectTip
// are never interleaved with another switch.
type Engine struct {
	mu    sync.Mutex
	chain Chain
	cfg   Config

	index   map[hashx.Hash]*entry // side blocks with known ancestry
	invalid map[hashx.Hash]struct{}
	store   *sideStore

	// Cumulative-work prefix over the active chain: prefix[h] is the
	// work through height h. tipHash detects external chain changes
	// (e.g. an IBD that bypassed the engine) and triggers a rebuild.
	prefix  []*big.Int
	tipHash hashx.Hash

	stats Stats
}

// New creates an engine over chain.
func New(chain Chain, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		chain:   chain,
		cfg:     cfg,
		index:   make(map[hashx.Hash]*entry),
		invalid: make(map[hashx.Hash]struct{}),
		store:   newSideStore(cfg.MaxSideBlocks, cfg.MaxPeerOrphans),
	}
	e.mu.Lock()
	e.rebuildPrefixLocked()
	e.mu.Unlock()
	return e
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// ProcessBlock routes one serialized block: tip extension, side
// branch, orphan, or reorg trigger. peer attributes orphan-store usage
// (use "" for local submissions). After the block lands, any stored
// orphans whose ancestry became known are adopted, which can extend
// the tip or trigger a switch of their own.
func (e *Engine) ProcessBlock(raw []byte, peer string) (Verdict, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshLocked()
	v, err := e.processLocked(raw, peer)
	if err != nil {
		return v, err
	}
	if v == Connected || v == Reorged || v == SideStored {
		if e.adoptLocked() && v == SideStored {
			// An adopted orphan moved the chain; report the switch so
			// callers announce the new tip.
			v = Reorged
		}
	}
	return v, nil
}

func (e *Engine) processLocked(raw []byte, peer string) (Verdict, error) {
	if len(raw) < blockmodel.HeaderSize {
		return Rejected, fmt.Errorf("forkchoice: %d-byte block shorter than a header", len(raw))
	}
	hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
	if err != nil {
		return Rejected, err
	}
	hash := hdr.Hash()
	if _, bad := e.invalid[hash]; bad {
		return Rejected, fmt.Errorf("%w: %s", ErrKnownInvalid, hash.Short())
	}
	if _, ok := e.chain.HeightByHash(hash); ok {
		return Duplicate, nil
	}
	if e.store.has(hash) {
		return Duplicate, nil
	}
	// Cheap header checks before any body is stored: proof of work,
	// and descent from a known-invalid block.
	if !hdr.MeetsTarget() {
		e.markInvalidLocked(hash)
		return Rejected, fmt.Errorf("forkchoice: block %s fails proof of work", hash.Short())
	}
	if _, bad := e.invalid[hdr.PrevBlock]; bad {
		e.markInvalidLocked(hash)
		return Rejected, fmt.Errorf("%w: parent %s", ErrKnownInvalid, hdr.PrevBlock.Short())
	}

	// Tip extension: the common case goes straight through the
	// validator.
	if hdr.PrevBlock == e.tipHash && uint64(len(e.prefix)) == hdr.Height {
		if err := e.chain.ConnectRaw(raw); err != nil {
			e.markInvalidLocked(hash)
			return Rejected, err
		}
		e.extendPrefixLocked(hdr, hash)
		return Connected, nil
	}

	// Resolve the parent: active chain, side index, or a competing
	// genesis (whose parent is the zero hash by definition).
	var parentWork *big.Int
	parentHeight := int64(-2)
	switch {
	case hdr.Height == 0 && hdr.PrevBlock == hashx.ZeroHash:
		parentWork, parentHeight = new(big.Int), -1
	default:
		if ph, ok := e.chain.HeightByHash(hdr.PrevBlock); ok && ph < uint64(len(e.prefix)) {
			parentWork, parentHeight = e.prefix[ph], int64(ph)
		} else if pe, ok := e.index[hdr.PrevBlock]; ok {
			parentWork, parentHeight = pe.work, int64(pe.header.Height)
		}
	}
	if parentWork == nil {
		stored, evicted := e.store.add(&sideItem{hash: hash, header: hdr, raw: raw, peer: peer, orphan: true})
		e.pruneIndexLocked(evicted)
		if !stored {
			e.logf("forkchoice: orphan %s dropped (store full)", hash.Short())
		}
		return Orphaned, nil
	}
	if int64(hdr.Height) != parentHeight+1 {
		e.markInvalidLocked(hash)
		return Rejected, fmt.Errorf("forkchoice: block %s claims height %d under parent at height %d",
			hash.Short(), hdr.Height, parentHeight)
	}

	work := new(big.Int).Add(parentWork, workOf(hdr.Bits))
	stored, evicted := e.store.add(&sideItem{hash: hash, header: hdr, raw: raw, peer: peer})
	e.pruneIndexLocked(evicted)
	if !stored {
		e.logf("forkchoice: side block %s dropped (store full)", hash.Short())
		return SideStored, nil
	}
	e.index[hash] = &entry{header: hdr, work: work}

	// Strictly more work than the active tip triggers the switch;
	// equal work keeps the first-seen branch.
	if work.Cmp(e.tipWorkLocked()) > 0 {
		if err := e.reorgLocked(hash); err != nil {
			return Rejected, err
		}
		return Reorged, nil
	}
	return SideStored, nil
}

// reorgLocked switches the active chain to the branch ending at
// target, atomically: either the chain ends on target, or (when a new
// branch block fails validation) the exact pre-reorg tip is restored
// and the losing branch is marked invalid.
func (e *Engine) reorgLocked(target hashx.Hash) error {
	// Walk parent links tip-down to the fork point.
	var path []*sideItem // tip-down
	forkHeight := int64(-2)
	for cur := target; ; {
		it, ok := e.store.get(cur)
		if !ok || it.orphan {
			e.stats.FailedReorgs++
			return fmt.Errorf("%w: %s", ErrSideBlockMissing, cur.Short())
		}
		path = append(path, it)
		if it.header.Height == 0 {
			forkHeight = -1
			break
		}
		if h, ok := e.chain.HeightByHash(it.header.PrevBlock); ok {
			forkHeight = int64(h)
			break
		}
		cur = it.header.PrevBlock
	}
	// Reverse to connect order (height-ascending).
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}

	tipHeight := int64(-1)
	if tip, ok := e.chain.TipHeight(); ok {
		tipHeight = int64(tip)
	}
	depth := int(tipHeight - forkHeight)
	if depth > e.cfg.MaxReorgDepth {
		e.stats.FailedReorgs++
		return fmt.Errorf("%w: depth %d > %d (fork at %d, tip %d)",
			ErrReorgTooDeep, depth, e.cfg.MaxReorgDepth, forkHeight, tipHeight)
	}
	// A fast-synced node keeps header-only history below its snapshot
	// tip; blocks without bodies can never be disconnected, so a fork
	// point below that boundary is refused outright.
	for h := forkHeight + 1; h <= tipHeight; h++ {
		if !e.chain.HasBody(uint64(h)) {
			e.stats.FailedReorgs++
			return fmt.Errorf("%w: no body for height %d (snapshot base above fork point %d)",
				ErrReorgPastSnapshot, h, forkHeight)
		}
	}

	// Old-branch work values, captured before the prefix is rebuilt,
	// so the losing blocks can be re-indexed as a side branch.
	oldPrefix := e.prefix

	// Disconnect the current branch tip-down, keeping the raw bytes
	// for rollback and re-indexing.
	var detached [][]byte // detached[0] is the old tip
	rollback := func(connected int) error {
		for j := 0; j < connected; j++ {
			if _, err := e.chain.DisconnectTip(); err != nil {
				return err
			}
		}
		for k := len(detached) - 1; k >= 0; k-- {
			if err := e.chain.ConnectRaw(detached[k]); err != nil {
				return err
			}
		}
		return nil
	}
	for h := tipHeight; h > forkHeight; h-- {
		raw, err := e.chain.DisconnectTip()
		if err != nil {
			if rerr := rollback(0); rerr != nil {
				return fmt.Errorf("%w: %v (after disconnect error: %v)", ErrRollbackFailed, rerr, err)
			}
			e.stats.FailedReorgs++
			return fmt.Errorf("forkchoice: disconnect height %d: %w", h, err)
		}
		detached = append(detached, raw)
	}

	// Connect the new branch through the node's normal validation
	// machinery (Preverify/ConnectPreverified under the hood when the
	// node runs the parallel pipeline).
	for i, it := range path {
		if err := e.chain.ConnectRaw(it.raw); err != nil {
			e.markInvalidLocked(it.hash)
			if rerr := rollback(i); rerr != nil {
				return fmt.Errorf("%w: %v (after validation error: %v)", ErrRollbackFailed, rerr, err)
			}
			e.rebuildPrefixLocked() // same tip, but cheap and certain
			e.stats.FailedReorgs++
			e.logf("forkchoice: switch to %s aborted at height %d, old tip restored: %v",
				target.Short(), it.header.Height, err)
			return fmt.Errorf("forkchoice: new branch rejected at height %d, old tip restored: %w",
				it.header.Height, err)
		}
	}

	// Committed: the winning branch leaves the side store, the losing
	// branch enters it (switching back later is just another reorg).
	for _, it := range path {
		e.store.remove(it.hash)
		delete(e.index, it.hash)
	}
	for i, raw := range detached {
		h := uint64(tipHeight - int64(i))
		hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
		if err != nil || hdr.Height != h {
			continue // cannot happen for blocks the chain itself served
		}
		hash := hdr.Hash()
		if stored, evicted := e.store.add(&sideItem{hash: hash, header: hdr, raw: raw}); stored {
			e.pruneIndexLocked(evicted)
			e.index[hash] = &entry{header: hdr, work: oldPrefix[h]}
		} else {
			e.pruneIndexLocked(evicted)
		}
	}
	e.rebuildPrefixLocked()
	e.stats.Reorgs++
	if depth > e.stats.DeepestReorg {
		e.stats.DeepestReorg = depth
	}
	e.logf("forkchoice: reorg depth %d to height %d %s", depth, path[len(path)-1].header.Height, target.Short())
	return nil
}

// adoptLocked retries stored orphans whose parent became known. It
// loops to fixpoint (an adopted orphan can be the parent of another)
// and reports whether the active tip moved.
func (e *Engine) adoptLocked() (moved bool) {
	before := e.tipHash
	for {
		var ready []*sideItem
		for _, it := range e.store.items {
			if !it.orphan {
				continue
			}
			_, onChain := e.chain.HeightByHash(it.header.PrevBlock)
			_, onSide := e.index[it.header.PrevBlock]
			if onChain || onSide {
				ready = append(ready, it)
			}
		}
		if len(ready) == 0 {
			break
		}
		for _, it := range ready {
			e.store.remove(it.hash)
			if _, err := e.processLocked(it.raw, it.peer); err != nil {
				e.logf("forkchoice: adopted orphan %s rejected: %v", it.hash.Short(), err)
			}
		}
	}
	return e.tipHash != before
}

// markInvalidLocked records hash as invalid and cascades to every
// stored descendant, evicting their bodies. Invalid blocks are never
// revalidated.
func (e *Engine) markInvalidLocked(hash hashx.Hash) {
	if len(e.invalid) >= maxInvalid {
		e.invalid = make(map[hashx.Hash]struct{})
	}
	e.invalid[hash] = struct{}{}
	e.stats.Invalid++
	e.store.remove(hash)
	delete(e.index, hash)
	for {
		var doomed []hashx.Hash
		for h, it := range e.store.items {
			if _, bad := e.invalid[it.header.PrevBlock]; bad {
				doomed = append(doomed, h)
			}
		}
		if len(doomed) == 0 {
			return
		}
		for _, h := range doomed {
			if len(e.invalid) >= maxInvalid {
				e.invalid = make(map[hashx.Hash]struct{})
			}
			e.invalid[h] = struct{}{}
			e.stats.Invalid++
			e.store.remove(h)
			delete(e.index, h)
		}
	}
}

func (e *Engine) pruneIndexLocked(evicted []hashx.Hash) {
	for _, h := range evicted {
		delete(e.index, h)
	}
}

// --- active-chain work bookkeeping ---

// refreshLocked re-syncs the work prefix when the chain changed
// outside the engine (e.g. an import that bypassed ProcessBlock).
func (e *Engine) refreshLocked() {
	th := e.chain.TipHash()
	n := 0
	if tip, ok := e.chain.TipHeight(); ok {
		n = int(tip) + 1
	}
	if th == e.tipHash && len(e.prefix) == n {
		return
	}
	e.rebuildPrefixLocked()
}

func (e *Engine) rebuildPrefixLocked() {
	e.prefix = e.prefix[:0]
	e.tipHash = e.chain.TipHash()
	tip, ok := e.chain.TipHeight()
	if !ok {
		return
	}
	acc := new(big.Int)
	for h := uint64(0); h <= tip; h++ {
		hdr, ok := e.chain.Header(h)
		if !ok {
			break
		}
		acc = new(big.Int).Add(acc, workOf(hdr.Bits))
		e.prefix = append(e.prefix, acc)
	}
}

func (e *Engine) extendPrefixLocked(hdr blockmodel.Header, hash hashx.Hash) {
	work := workOf(hdr.Bits)
	if len(e.prefix) > 0 {
		work = new(big.Int).Add(e.prefix[len(e.prefix)-1], work)
	}
	e.prefix = append(e.prefix, work)
	e.tipHash = hash
}

func (e *Engine) tipWorkLocked() *big.Int {
	if len(e.prefix) == 0 {
		return new(big.Int)
	}
	return e.prefix[len(e.prefix)-1]
}

// workOf is the expected work of one block: 2^Bits hash trials for
// Bits leading zero bits (Bits 0, PoW off, counts one unit so fork
// choice degrades to longest-chain).
func workOf(bits uint32) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(bits))
}

// --- accessors for the gossip layer ---

// TipWork returns the active chain's cumulative work as minimal
// big-endian bytes (empty for an empty chain), the form the hello
// tip-work field carries.
func (e *Engine) TipWork() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshLocked()
	return e.tipWorkLocked().Bytes()
}

// Knows reports whether the engine has already seen this block in any
// role: active chain, side store, orphan, or invalid.
func (e *Engine) Knows(h hashx.Hash) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.chain.HeightByHash(h); ok {
		return true
	}
	if e.store.has(h) {
		return true
	}
	_, bad := e.invalid[h]
	return bad
}

// BlockByHash serves a block body by hash from the active chain or
// the side store, so peers can fetch a competing branch after a
// headers exchange.
func (e *Engine) BlockByHash(h hashx.Hash) ([]byte, uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if height, ok := e.chain.HeightByHash(h); ok {
		raw, err := e.chain.BlockBytes(height)
		if err == nil {
			return raw, height, true
		}
	}
	if it, ok := e.store.get(h); ok {
		return it.raw, it.header.Height, true
	}
	return nil, 0, false
}

// Locator returns the active chain's block locator.
func (e *Engine) Locator() []hashx.Hash {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chain.Locator()
}

// LocatorFork resolves a peer's locator against the active chain.
func (e *Engine) LocatorFork(loc []hashx.Hash) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chain.LocatorFork(loc)
}

// HeaderAt returns the active-chain header at a height.
func (e *Engine) HeaderAt(height uint64) (blockmodel.Header, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chain.Header(height)
}

// TipHeight returns the active tip.
func (e *Engine) TipHeight() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chain.TipHeight()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.SideBlocks = e.store.len()
	s.Orphans = 0
	for _, it := range e.store.items {
		if it.orphan {
			s.Orphans++
		}
	}
	return s
}
