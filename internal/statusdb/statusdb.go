// Package statusdb implements EBV's status database: the bit-vector
// set (paper §IV-B, §IV-E). The key is a block height; the value is
// the block's bit vector, one bit per output, 1 = unspent. Connecting
// a block inserts an all-ones vector for it and clears the bits its
// inputs spend; a vector whose bits are all zero is deleted; vectors
// are held in their *encoded* form — the paper's sparse-index
// optimization — so the database's memory footprint is exactly the sum
// of the optimized encodings.
//
// The whole set fits comfortably in memory (that is the point of the
// paper), but a single lock over it serializes every probe, commit,
// and snapshot. The store is therefore sharded: heights are striped
// across NewSharded's shard count, each shard holding its own map,
// RWMutex, and accounting counters. Commits stage their mutations per
// shard — concurrently for large blocks — under read locks, and only
// after every shard validates are the write locks taken and the
// staged entries applied, so the all-or-nothing failure contract of
// the unsharded store is preserved exactly.
//
// Consistency model: writers (Connect, Disconnect, Load,
// ImportVectors) are serialized by a commit mutex and never fail after
// the first byte of state changes. Readers never block each other and
// only contend with a writer on the shards it touches. A single probe
// is linearizable; a batch of probes overlapping an in-flight commit
// may observe some of its spends applied and others not (each bit
// individually reads either the pre- or post-commit value, and the new
// block's outputs stay invisible until the tip advances, which happens
// last). Aggregates (MemUsage, UnspentCount, ...) sum per-shard
// counters without a stop-the-world lock and may transiently reflect a
// partially applied commit. Snapshots (Save, ExportVectors) are exact:
// they exclude writers for a brief pointer-copy walk and serialize
// outside all locks.
//
// Stored encodings are immutable: every mutation installs a freshly
// allocated encoding, so a snapshot's shallow copies stay stable after
// the locks are released. A commit preserves this by packing all of a
// block's replacement encodings into one freshly allocated slab and
// installing non-overlapping sub-slices of it; the trade-off is that a
// replaced sub-slice keeps its slab reachable until every encoding
// from that commit has itself been replaced.
package statusdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"ebv/internal/bitvec"
)

// Errors reported by the status database.
var (
	// ErrUnknownBlock is returned when a height beyond the tip (or
	// never connected) is referenced.
	ErrUnknownBlock = errors.New("statusdb: unknown block height")
	// ErrDoubleSpend is returned when a spend clears an already-zero
	// bit — the output was spent before.
	ErrDoubleSpend = errors.New("statusdb: output already spent")
	// ErrOutOfRange is returned for positions beyond the block's
	// output count.
	ErrOutOfRange = errors.New("statusdb: position out of range")
)

// vectorOverhead approximates per-vector bookkeeping (map entry, slice
// header, height key) charged to MemUsage.
const vectorOverhead = 32

// Sharding parameters.
const (
	// DefaultShards is the shard count New uses. Equivalence is
	// unconditional — any shard count produces byte-identical state —
	// so the default favors multi-core probe and commit throughput.
	DefaultShards = 8
	// MaxShards bounds NewSharded's shard count.
	MaxShards = 256
	// shardShift groups runs of 1<<shardShift consecutive heights on
	// the same shard before striping. 0 stripes adjacent heights
	// round-robin, which spreads both a block's spends (they cluster
	// in recent heights) and batched probes evenly.
	shardShift = 0
)

// Work thresholds below which staging and batch probes stay on the
// calling goroutine: fan-out costs a goroutine per shard, which only
// pays for itself on blocks with enough spends.
const (
	parallelStageMin = 64
	parallelProbeMin = 256
)

// Spend identifies one output consumed by a new block.
type Spend struct {
	Height uint64
	Pos    uint32
}

// shard is one stripe of the set: its own lock, encoded-vector map,
// and accounting counters. The padding keeps hot shards on distinct
// cache lines.
type shard struct {
	mu       sync.RWMutex
	vectors  map[uint64][]byte // height -> encoded vector (absent = fully spent)
	memBytes int64             // sum of encoded sizes + overhead
	dense    int64             // what the footprint would be without optimization
	ones     int64             // unspent outputs tracked by this shard
	_        [56]byte
}

// DB is the bit-vector set. The zero value is not usable; call New or
// NewSharded.
type DB struct {
	optimize bool
	mask     uint64
	shards   []shard

	// probePool recycles the per-batch shard grouping of
	// IsUnspentBatchInto so warm probes allocate nothing.
	probePool sync.Pool

	// commitMu serializes the writers and is the consistency point
	// for snapshots and invariant checks. Lock order: commitMu →
	// shard locks (ascending index) → tipMu.
	commitMu sync.Mutex

	// cs is Connect's reusable staging state; guarded by commitMu.
	cs commitScratch

	// tipMu guards tip/hasTip for readers; writers additionally hold
	// commitMu, so they may read the tip fields without tipMu.
	tipMu  sync.RWMutex
	tip    uint64
	hasTip bool
}

// New returns an empty bit-vector set with DefaultShards shards.
// optimize selects the paper's sparse-vector optimization; pass false
// to measure the "EBV without optimization" ablation of Fig. 14.
func New(optimize bool) *DB { return NewSharded(optimize, 0) }

// NewSharded returns an empty bit-vector set striped over the given
// number of shards, rounded up to a power of two in [1, MaxShards];
// 0 selects DefaultShards. Shard count affects only concurrency —
// state, errors, and snapshots are identical for every setting.
func NewSharded(optimize bool, shards int) *DB {
	n := shards
	if n <= 0 {
		n = DefaultShards
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	d := &DB{optimize: optimize, mask: uint64(p - 1), shards: make([]shard, p)}
	for i := range d.shards {
		d.shards[i].vectors = make(map[uint64][]byte)
	}
	d.probePool.New = func() any {
		return &probeScratch{groups: make([][]int, len(d.shards))}
	}
	return d
}

// Shards returns the shard count the set was built with.
func (d *DB) Shards() int { return len(d.shards) }

// shardIndex maps a height to the shard that owns it.
func (d *DB) shardIndex(h uint64) int { return int((h >> shardShift) & d.mask) }

func (d *DB) encode(v *bitvec.Vector) []byte {
	if d.optimize {
		return v.Encode()
	}
	return v.EncodeDense()
}

// appendEncode appends the bytes encode would produce to dst.
func (d *DB) appendEncode(dst []byte, v *bitvec.Vector) []byte {
	if d.optimize {
		return v.AppendEncode(dst)
	}
	return v.AppendDense(dst)
}

// encodedSize returns len(d.encode(v)) without encoding, so staging
// can finalize accounting deltas before the encode pass runs.
func (d *DB) encodedSize(v *bitvec.Vector) int {
	if d.optimize {
		return v.EncodedSize()
	}
	return v.DenseSize()
}

// vecPool recycles staging vectors; DecodeInto/ResetAllSet reuse their
// word storage, so a warm commit decodes without allocating.
var vecPool = sync.Pool{New: func() any { return new(bitvec.Vector) }}

func getVec() *bitvec.Vector  { return vecPool.Get().(*bitvec.Vector) }
func putVec(v *bitvec.Vector) { vecPool.Put(v) }

// stagedEntry is one height's validated pending mutation: the new
// encoding (nil = delete the vector, when v is also nil) plus the
// accounting deltas its application adds to the owning shard. Connect
// stages the mutated vector itself (v, with its known encoded size)
// and defers serialization to a single encode pass between staging and
// apply; Disconnect stages final encodings directly.
type stagedEntry struct {
	h                uint64
	enc              []byte
	v                *bitvec.Vector
	size             int
	mem, dense, ones int64
}

// stageErr couples a staging error with the height it failed at, so
// error selection is deterministic (lowest failing height) no matter
// how many shards stage concurrently or in what order they finish.
type stageErr struct {
	err error
	h   uint64
}

// spendGroup is one touched height's run of spends inside the sorted
// commit scratch: spends[lo:hi], all at height h, in input order.
type spendGroup struct {
	h      uint64
	lo, hi int
}

// spendSorter stable-sorts a spend slice by height. A named type with
// a pointer receiver keeps sort.Stable from allocating per commit.
type spendSorter struct{ s []Spend }

func (x *spendSorter) Len() int           { return len(x.s) }
func (x *spendSorter) Less(i, j int) bool { return x.s[i].Height < x.s[j].Height }
func (x *spendSorter) Swap(i, j int)      { x.s[i], x.s[j] = x.s[j], x.s[i] }

// commitScratch is Connect's reusable staging state: the sorted spend
// copy, its height groups, the per-shard work lists, and the staged
// entry buffers. Guarded by commitMu; reused across commits so a warm
// connect allocates only the encode slab.
type commitScratch struct {
	spends   []Spend
	sorter   spendSorter
	groups   []spendGroup
	perShard [][]int // group indices per shard, ascending height
	touched  []int
	staged   [][]stagedEntry
	errs     []stageErr
}

func (cs *commitScratch) ensure(nShards int) {
	if len(cs.perShard) != nShards {
		cs.perShard = make([][]int, nShards)
		cs.staged = make([][]stagedEntry, nShards)
		cs.errs = make([]stageErr, nShards)
	}
}

// shardHeights splits ascending-sorted heights into per-shard work
// lists (ascending within each shard).
func (d *DB) shardHeights(heights []uint64) [][]uint64 {
	perShard := make([][]uint64, len(d.shards))
	for _, h := range heights {
		si := d.shardIndex(h)
		perShard[si] = append(perShard[si], h)
	}
	return perShard
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for h := range m {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// stageShards runs fn over every shard with work — concurrently when
// parallel is set and more than one shard is touched — and merges the
// results. Staging is read-only (fn takes the shard's read lock), so
// an error leaves the set untouched. When several shards fail, the
// error at the lowest height wins: within a height fn reports its
// first failure in input order, and exactly one shard owns a height,
// so the selection is total and independent of scheduling.
func (d *DB) stageShards(perShard [][]uint64, parallel bool, fn func(si int, heights []uint64) ([]stagedEntry, stageErr)) ([][]stagedEntry, error) {
	staged := make([][]stagedEntry, len(d.shards))
	var touched []int
	for si := range perShard {
		if len(perShard[si]) > 0 {
			touched = append(touched, si)
		}
	}
	errs := make([]stageErr, len(d.shards))
	if parallel && len(touched) > 1 {
		var wg sync.WaitGroup
		for _, si := range touched {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				staged[si], errs[si] = fn(si, perShard[si])
			}(si)
		}
		wg.Wait()
	} else {
		for _, si := range touched {
			staged[si], errs[si] = fn(si, perShard[si])
		}
	}
	var first stageErr
	for _, se := range errs {
		if se.err != nil && (first.err == nil || se.h < first.h) {
			first = se
		}
	}
	if first.err != nil {
		return nil, first.err
	}
	return staged, nil
}

// apply commits staged entries shard by shard under the write locks.
// Application is pure writes and cannot fail; together with the
// staging pass never mutating, this is the two-phase structure that
// preserves the unsharded store's all-or-nothing contract.
func (d *DB) apply(staged [][]stagedEntry) {
	for si := range staged {
		if len(staged[si]) == 0 {
			continue
		}
		s := &d.shards[si]
		s.mu.Lock()
		for _, e := range staged[si] {
			if e.enc == nil {
				delete(s.vectors, e.h)
			} else {
				s.vectors[e.h] = e.enc
			}
			s.memBytes += e.mem
			s.dense += e.dense
			s.ones += e.ones
		}
		s.mu.Unlock()
	}
}

// setTip publishes a new tip. The tip moves only after every shard's
// apply: readers cannot see a block's outputs before its spends and
// vector are fully in place. Caller holds commitMu.
func (d *DB) setTip(tip uint64, has bool) {
	d.tipMu.Lock()
	d.tip, d.hasTip = tip, has
	d.tipMu.Unlock()
}

func (d *DB) snapshotTip() (uint64, bool) {
	d.tipMu.RLock()
	defer d.tipMu.RUnlock()
	return d.tip, d.hasTip
}

// Connect applies one block atomically: it registers the new block's
// all-ones vector of nOutputs bits, then clears the bit of every
// spend. It fails without side effects on unknown heights,
// out-of-range positions, double spends (including duplicates within
// the same call), and non-monotonic heights. When several heights are
// invalid, the reported error is the one at the lowest height (within
// a height, the first failing spend in input order).
//
// Spends are staged per shard — concurrently for large blocks — and
// committed only after every shard validates. Staged vectors are
// serialized in one batched encode pass (one slab allocation for the
// whole block) between validation and apply, so each shard's write
// lock is taken exactly once and held only for map/counter updates. A
// zero-output block stores no vector at all, so "absent = fully spent"
// holds for it from birth; it still advances the tip.
func (d *DB) Connect(height uint64, nOutputs int, spends []Spend) error {
	if nOutputs < 0 || nOutputs > bitvec.MaxLen {
		return fmt.Errorf("%w: %d outputs at height %d", ErrOutOfRange, nOutputs, height)
	}
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if d.hasTip && height != d.tip+1 {
		return fmt.Errorf("statusdb: connect height %d after tip %d", height, d.tip)
	}
	if !d.hasTip && height != 0 {
		return fmt.Errorf("statusdb: first block must be height 0, got %d", height)
	}

	cs := &d.cs
	cs.ensure(len(d.shards))
	cs.spends = append(cs.spends[:0], spends...)
	for _, s := range cs.spends {
		if s.Height >= height {
			// A block cannot spend its own or future outputs.
			return fmt.Errorf("%w: spend references height %d in block %d", ErrUnknownBlock, s.Height, height)
		}
	}
	// Stable sort: heights become ascending while each height's spends
	// keep their input order, which the error contract depends on.
	cs.sorter.s = cs.spends
	sort.Stable(&cs.sorter)
	cs.groups = cs.groups[:0]
	for i := 0; i < len(cs.spends); {
		j := i + 1
		for j < len(cs.spends) && cs.spends[j].Height == cs.spends[i].Height {
			j++
		}
		cs.groups = append(cs.groups, spendGroup{h: cs.spends[i].Height, lo: i, hi: j})
		i = j
	}
	cs.touched = cs.touched[:0]
	for si := range cs.perShard {
		cs.perShard[si] = cs.perShard[si][:0]
		cs.staged[si] = cs.staged[si][:0]
		cs.errs[si] = stageErr{}
	}
	for gi := range cs.groups {
		si := d.shardIndex(cs.groups[gi].h)
		if len(cs.perShard[si]) == 0 {
			cs.touched = append(cs.touched, si)
		}
		cs.perShard[si] = append(cs.perShard[si], gi)
	}

	stage := func(si int) {
		cs.staged[si], cs.errs[si] = d.stageConnectShard(si, cs.perShard[si], cs.staged[si])
	}
	if len(cs.spends) >= parallelStageMin && len(cs.touched) > 1 {
		var wg sync.WaitGroup
		for _, si := range cs.touched {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				stage(si)
			}(si)
		}
		wg.Wait()
	} else {
		for _, si := range cs.touched {
			stage(si)
		}
	}
	var first stageErr
	for _, se := range cs.errs {
		if se.err != nil && (first.err == nil || se.h < first.h) {
			first = se
		}
	}
	if first.err != nil {
		d.releaseStaged()
		return first.err
	}

	if nOutputs > 0 {
		nv := getVec()
		nv.ResetAllSet(nOutputs)
		size := d.encodedSize(nv)
		si := d.shardIndex(height)
		cs.staged[si] = append(cs.staged[si], stagedEntry{
			h:     height,
			v:     nv,
			size:  size,
			mem:   int64(size) + vectorOverhead,
			dense: int64(nv.DenseSize()) + vectorOverhead,
			ones:  int64(nOutputs),
		})
	}

	d.encodeStaged()
	d.apply(cs.staged)
	d.setTip(height, true)
	d.releaseStaged()
	return nil
}

// encodeStaged serializes every staged vector into one slab for the
// whole block, installed as non-overlapping capacity-clamped
// sub-slices (preserving the encoding-immutability contract). Vectors
// return to the pool as they are encoded. Caller holds commitMu; no
// shard locks are needed.
func (d *DB) encodeStaged() {
	cs := &d.cs
	total := 0
	for si := range cs.staged {
		for i := range cs.staged[si] {
			if cs.staged[si][i].v != nil {
				total += cs.staged[si][i].size
			}
		}
	}
	slab := make([]byte, 0, total)
	for si := range cs.staged {
		for i := range cs.staged[si] {
			e := &cs.staged[si][i]
			if e.v == nil {
				continue
			}
			off := len(slab)
			slab = d.appendEncode(slab, e.v)
			e.enc = slab[off:len(slab):len(slab)]
			putVec(e.v)
			e.v = nil
		}
	}
}

// releaseStaged returns any still-staged vectors to the pool and drops
// the scratch's references to the last commit's entries, so a failed
// or finished commit does not pin encodings (or a whole slab) beyond
// its lifetime. Caller holds commitMu.
func (d *DB) releaseStaged() {
	cs := &d.cs
	for si := range cs.staged {
		for i := range cs.staged[si] {
			if v := cs.staged[si][i].v; v != nil {
				putVec(v)
			}
			cs.staged[si][i] = stagedEntry{}
		}
		cs.staged[si] = cs.staged[si][:0]
	}
}

// stageConnectShard validates and stages one shard's spend groups
// under its read lock: decode each touched vector into a pooled
// scratch vector, clear the bits in input order, and record the
// mutated vector (nil when fully spent) with its accounting deltas.
// Serialization is deferred to encodeStaged.
func (d *DB) stageConnectShard(si int, groupIdx []int, out []stagedEntry) ([]stagedEntry, stageErr) {
	cs := &d.cs
	s := &d.shards[si]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, gi := range groupIdx {
		g := cs.groups[gi]
		h := g.h
		enc, ok := s.vectors[h]
		if !ok {
			// Height below the tip with no vector: fully spent block.
			return nil, stageErr{fmt.Errorf("%w: height %d position %d", ErrDoubleSpend, h, cs.spends[g.lo].Pos), h}
		}
		v := getVec()
		if err := bitvec.DecodeInto(v, enc); err != nil {
			putVec(v)
			return nil, stageErr{fmt.Errorf("statusdb: corrupt vector at height %d: %v", h, err), h}
		}
		for _, sp := range cs.spends[g.lo:g.hi] {
			p := sp.Pos
			if int(p) >= v.Len() {
				putVec(v)
				return nil, stageErr{fmt.Errorf("%w: height %d position %d (block has %d outputs)", ErrOutOfRange, h, p, v.Len()), h}
			}
			if !v.Clear(int(p)) {
				putVec(v)
				return nil, stageErr{fmt.Errorf("%w: height %d position %d", ErrDoubleSpend, h, p), h}
			}
		}
		se := stagedEntry{
			h:     h,
			mem:   -(int64(len(enc)) + vectorOverhead),
			dense: -(int64(v.DenseSize()) + vectorOverhead),
			ones:  -int64(g.hi - g.lo),
		}
		if v.AllZero() {
			putVec(v)
		} else {
			se.v = v
			se.size = d.encodedSize(v)
			se.mem += int64(se.size) + vectorOverhead
			se.dense += int64(v.DenseSize()) + vectorOverhead
		}
		out = append(out, se)
	}
	return out, stageErr{}
}

// IsUnspent probes one bit: the Unspent Validation primitive. A height
// at or below the tip whose vector is absent reports false — whether
// it was deleted as fully spent or was a zero-output block that never
// stored one — for any position. A height above the tip is an error.
func (d *DB) IsUnspent(height uint64, pos uint32) (bool, error) {
	tip, hasTip := d.snapshotTip()
	s := &d.shards[d.shardIndex(height)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return probeShard(s, tip, hasTip, height, pos)
}

// ProbeResult is one spend's answer from IsUnspentBatch, with exactly
// the semantics of an IsUnspent call for the same (height, pos).
type ProbeResult struct {
	Unspent bool
	Err     error
}

// probeScratch is the recycled shard grouping of a batch probe. Its
// groups slices are left empty between uses (reset before Put), so a
// fresh Get needs no clearing pass over untouched shards.
type probeScratch struct {
	groups  [][]int
	touched []int
}

// IsUnspentBatch probes every spend with one lock acquisition per
// shard visited — the per-block Unspent Validation pattern — probing
// shards concurrently for large batches. res[i] answers spends[i]
// exactly as IsUnspent would. All probes share one tip observation;
// per bit, each result is the pre- or post-state of any commit the
// batch overlaps (quiescent, the batch is a point-in-time snapshot,
// and stage B's validator never overlaps its own commits).
func (d *DB) IsUnspentBatch(spends []Spend) []ProbeResult {
	return d.IsUnspentBatchInto(spends, make([]ProbeResult, len(spends)))
}

// IsUnspentBatchInto is IsUnspentBatch writing into a caller-supplied
// result buffer, which it returns resized to len(spends); it allocates
// only if res is too small. The ingest scratch uses this to keep warm
// probes allocation-free.
func (d *DB) IsUnspentBatchInto(spends []Spend, res []ProbeResult) []ProbeResult {
	if cap(res) < len(spends) {
		res = make([]ProbeResult, len(spends))
	}
	res = res[:len(spends)]
	tip, hasTip := d.snapshotTip()
	if len(d.shards) == 1 {
		s := &d.shards[0]
		s.mu.RLock()
		for i := range spends {
			res[i].Unspent, res[i].Err = probeShard(s, tip, hasTip, spends[i].Height, spends[i].Pos)
		}
		s.mu.RUnlock()
		return res
	}
	ps := d.probePool.Get().(*probeScratch)
	groups, touched := ps.groups, ps.touched[:0]
	for i := range spends {
		si := d.shardIndex(spends[i].Height)
		if len(groups[si]) == 0 {
			touched = append(touched, si)
		}
		groups[si] = append(groups[si], i)
	}
	probeGroup := func(si int) {
		s := &d.shards[si]
		s.mu.RLock()
		for _, i := range groups[si] {
			res[i].Unspent, res[i].Err = probeShard(s, tip, hasTip, spends[i].Height, spends[i].Pos)
		}
		s.mu.RUnlock()
	}
	if len(spends) >= parallelProbeMin && len(touched) > 1 {
		var wg sync.WaitGroup
		for _, si := range touched {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				probeGroup(si)
			}(si)
		}
		wg.Wait()
	} else {
		for _, si := range touched {
			probeGroup(si)
		}
	}
	for _, si := range touched {
		groups[si] = groups[si][:0]
	}
	ps.touched = touched
	d.probePool.Put(ps)
	return res
}

// probeShard is the probe body; the caller holds s's read lock and s
// must own height's stripe.
func probeShard(s *shard, tip uint64, hasTip bool, height uint64, pos uint32) (bool, error) {
	if !hasTip || height > tip {
		return false, fmt.Errorf("%w: %d", ErrUnknownBlock, height)
	}
	enc, ok := s.vectors[height]
	if !ok {
		return false, nil
	}
	n, err := bitvec.EncodedLen(enc)
	if err != nil {
		return false, fmt.Errorf("statusdb: corrupt vector at height %d: %v", height, err)
	}
	if int(pos) >= n {
		return false, fmt.Errorf("%w: height %d position %d (block has %d outputs)", ErrOutOfRange, height, pos, n)
	}
	return bitvec.ProbeEncoded(enc, int(pos))
}

// VectorLen returns the output count of the live vector at height. ok
// is false when the vector is absent — never connected, deleted as
// fully spent, or a zero-output block (which stores no vector) — or
// undecodable; the caller must then consult block storage for the
// output count.
func (d *DB) VectorLen(height uint64) (int, bool) {
	s := &d.shards[d.shardIndex(height)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc, ok := s.vectors[height]
	if !ok {
		return 0, false
	}
	n, err := bitvec.EncodedLen(enc)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Tip returns the highest connected height; ok is false when empty.
func (d *DB) Tip() (uint64, bool) {
	return d.snapshotTip()
}

// MemUsage returns the set's memory footprint in bytes: the sum of the
// (optimized) vector encodings plus fixed per-vector overhead. This is
// the EBV line of Fig. 14. Like every aggregate below it sums
// per-shard counters without stopping the world; concurrent with an
// in-flight commit the sum may transiently reflect a partially
// applied block.
func (d *DB) MemUsage() int64 {
	var t int64
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		t += s.memBytes
		s.mu.RUnlock()
	}
	return t
}

// DenseUsage returns what MemUsage would be with every vector encoded
// densely — the "EBV without optimization" line of Fig. 14.
func (d *DB) DenseUsage() int64 {
	var t int64
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		t += s.dense
		s.mu.RUnlock()
	}
	return t
}

// VectorCount returns the number of live vectors: fully spent blocks
// and zero-output blocks store none.
func (d *DB) VectorCount() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		n += len(s.vectors)
		s.mu.RUnlock()
	}
	return n
}

// UnspentCount returns the total number of 1-bits across all vectors —
// the EBV equivalent of the UTXO count.
func (d *DB) UnspentCount() int64 {
	var t int64
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		t += s.ones
		s.mu.RUnlock()
	}
	return t
}

// Save writes a snapshot. Format: varint tip+1 (0 = empty), varint
// vector count, then per vector varint height + varint len + encoding,
// ascending by height. The consistency point is a brief pointer-copy
// walk (snapshotShallow); serialization runs outside all locks, so a
// concurrent Connect is not blocked for the duration of the write.
func (d *DB) Save(w io.Writer) error {
	tip, hasTip, vecs := d.snapshotShallow()
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].Height < vecs[j].Height })
	bw := bufio.NewWriter(w)
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		_, err := bw.Write(buf[:binary.PutUvarint(buf[:], v)])
		return err
	}
	tipField := uint64(0)
	if hasTip {
		tipField = tip + 1
	}
	if err := writeUvarint(tipField); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(vecs))); err != nil {
		return err
	}
	for _, hv := range vecs {
		if err := writeUvarint(hv.Height); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(hv.Enc))); err != nil {
			return err
		}
		if _, err := bw.Write(hv.Enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load replaces the set's contents with a snapshot written by Save.
// A snapshot carrying the same height twice is rejected — the map
// would keep only the last copy while the accounting counted every
// one, corrupting MemUsage/DenseUsage/UnspentCount for the life of
// the process.
func (d *DB) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	tipField, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("statusdb: load: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("statusdb: load: %w", err)
	}
	vectors := make([]map[uint64][]byte, len(d.shards))
	acct := make([]shardAcct, len(d.shards))
	for i := range vectors {
		vectors[i] = make(map[uint64][]byte)
	}
	for i := uint64(0); i < count; i++ {
		h, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("statusdb: load vector %d: %w", i, err)
		}
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("statusdb: load vector %d: %w", i, err)
		}
		if l > 3*bitvec.MaxLen {
			return fmt.Errorf("statusdb: load vector %d: implausible size %d", i, l)
		}
		enc := make([]byte, l)
		if _, err := io.ReadFull(br, enc); err != nil {
			return fmt.Errorf("statusdb: load vector %d: %w", i, err)
		}
		v, err := bitvec.Decode(enc)
		if err != nil {
			return fmt.Errorf("statusdb: load vector %d: %v", i, err)
		}
		if tipField == 0 || h >= tipField {
			return fmt.Errorf("statusdb: load vector %d: height %d beyond tip", i, h)
		}
		si := d.shardIndex(h)
		if _, dup := vectors[si][h]; dup {
			return fmt.Errorf("statusdb: load vector %d: duplicate height %d", i, h)
		}
		vectors[si][h] = enc
		acct[si].mem += int64(len(enc)) + vectorOverhead
		acct[si].dense += int64(v.DenseSize()) + vectorOverhead
		acct[si].ones += int64(v.Ones())
	}
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	tip := uint64(0)
	if tipField > 0 {
		tip = tipField - 1
	}
	d.replaceAll(vectors, acct, tip, tipField > 0)
	return nil
}

// shardAcct carries one shard's accounting counters during a bulk
// replace.
type shardAcct struct {
	mem, dense, ones int64
}

// replaceAll swaps in a whole new state under every shard lock at
// once, so concurrent readers see either the old set or the new one,
// never a mix. Caller holds commitMu; locks are taken in ascending
// index order per the package lock order.
func (d *DB) replaceAll(vectors []map[uint64][]byte, acct []shardAcct, tip uint64, has bool) {
	for i := range d.shards {
		d.shards[i].mu.Lock()
	}
	for i := range d.shards {
		s := &d.shards[i]
		s.vectors = vectors[i]
		s.memBytes = acct[i].mem
		s.dense = acct[i].dense
		s.ones = acct[i].ones
	}
	d.setTip(tip, has)
	for i := len(d.shards) - 1; i >= 0; i-- {
		d.shards[i].mu.Unlock()
	}
}

// Restore identifies one output whose spent bit must be re-set while
// disconnecting a block, together with the output count of its block
// (needed to recreate a vector that was deleted as fully spent).
type Restore struct {
	Height   uint64
	Pos      uint32
	NOutputs int
}

// Disconnect reverses the tip block: its vector is dropped (its
// outputs cease to exist) and the bits its inputs had cleared are set
// again. height must be the current tip; restores must describe
// exactly the spends the block applied. On error the set is
// unchanged: every decode — including the stored vectors being
// rewritten and the tip vector itself — happens in the staging pass,
// before any mutation, so a corrupt vector surfaces as an error
// rather than a mid-reorg panic or a half-applied disconnect.
func (d *DB) Disconnect(height uint64, restores []Restore) error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if !d.hasTip || height != d.tip {
		return fmt.Errorf("statusdb: disconnect height %d, tip %d (present=%v)", height, d.tip, d.hasTip)
	}
	byHeight := make(map[uint64][]Restore)
	for _, r := range restores {
		if r.Height >= height {
			return fmt.Errorf("%w: restore references height %d at tip %d", ErrUnknownBlock, r.Height, height)
		}
		byHeight[r.Height] = append(byHeight[r.Height], r)
	}

	perShard := d.shardHeights(sortedKeys(byHeight))
	staged, err := d.stageShards(perShard, len(restores) >= parallelStageMin,
		func(si int, heights []uint64) ([]stagedEntry, stageErr) {
			return d.stageDisconnectShard(si, heights, byHeight)
		})
	if err != nil {
		return err
	}

	tipEntry, err := d.stageTipRemoval(height)
	if err != nil {
		return err
	}
	if tipEntry != nil {
		si := d.shardIndex(height)
		staged[si] = append(staged[si], *tipEntry)
	}

	d.apply(staged)
	if height == 0 {
		d.setTip(0, false)
	} else {
		d.setTip(height-1, true)
	}
	return nil
}

// stageDisconnectShard validates and stages one shard's restores under
// its read lock: decode each touched vector (or rebuild a zero vector
// for a block deleted as fully spent), re-set the bits, and record the
// replacement encoding with its accounting deltas.
func (d *DB) stageDisconnectShard(si int, heights []uint64, byHeight map[uint64][]Restore) ([]stagedEntry, stageErr) {
	s := &d.shards[si]
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]stagedEntry, 0, len(heights))
	for _, h := range heights {
		rs := byHeight[h]
		var v *bitvec.Vector
		hadOld := false
		oldLen := 0
		if enc, ok := s.vectors[h]; ok {
			var err error
			v, err = bitvec.Decode(enc)
			if err != nil {
				return nil, stageErr{fmt.Errorf("statusdb: corrupt vector at height %d: %v", h, err), h}
			}
			hadOld, oldLen = true, len(enc)
		} else {
			if rs[0].NOutputs < 0 || rs[0].NOutputs > bitvec.MaxLen {
				return nil, stageErr{fmt.Errorf("%w: height %d declared %d outputs", ErrOutOfRange, h, rs[0].NOutputs), h}
			}
			v = bitvec.New(rs[0].NOutputs)
		}
		for _, r := range rs {
			if r.NOutputs != v.Len() {
				return nil, stageErr{fmt.Errorf("%w: height %d declared %d outputs, vector has %d", ErrOutOfRange, h, r.NOutputs, v.Len()), h}
			}
			if int(r.Pos) >= v.Len() {
				return nil, stageErr{fmt.Errorf("%w: height %d position %d", ErrOutOfRange, h, r.Pos), h}
			}
			if v.Get(int(r.Pos)) {
				return nil, stageErr{fmt.Errorf("statusdb: restore of unspent bit %d:%d", h, r.Pos), h}
			}
			v.Set(int(r.Pos))
		}
		se := stagedEntry{h: h, ones: int64(len(rs))}
		if hadOld {
			// Setting bits never changes the length, so the dense
			// size of the old encoding equals the staged vector's —
			// no second decode of the stored bytes is needed (or
			// performed) anywhere past this point.
			se.mem -= int64(oldLen) + vectorOverhead
			se.dense -= int64(v.DenseSize()) + vectorOverhead
		}
		ne := d.encode(v)
		se.enc = ne
		se.mem += int64(len(ne)) + vectorOverhead
		se.dense += int64(v.DenseSize()) + vectorOverhead
		out = append(out, se)
	}
	return out, stageErr{}
}

// stageTipRemoval stages dropping the tip block's vector. An absent
// tip vector (a zero-output block) stages nothing; a corrupt one is
// an error — raised before any mutation.
func (d *DB) stageTipRemoval(height uint64) (*stagedEntry, error) {
	s := &d.shards[d.shardIndex(height)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc, ok := s.vectors[height]
	if !ok {
		return nil, nil
	}
	v, err := bitvec.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("statusdb: corrupt tip vector: %v", err)
	}
	return &stagedEntry{
		h:     height,
		mem:   -(int64(len(enc)) + vectorOverhead),
		dense: -(int64(v.DenseSize()) + vectorOverhead),
		ones:  -int64(v.Ones()),
	}, nil
}
