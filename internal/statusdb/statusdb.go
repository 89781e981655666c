// Package statusdb implements EBV's status database: the bit-vector
// set (paper §IV-B, §IV-E). The key is a block height; the value is
// the block's bit vector, one bit per output, 1 = unspent. Connecting
// a block inserts an all-ones vector for it and clears the bits its
// inputs spend; a vector whose bits are all zero is deleted; vectors
// are held in their *encoded* form — the paper's sparse-index
// optimization — so the database's memory footprint is exactly the sum
// of the optimized encodings.
//
// The whole set is small (that is the point of the paper: tens of
// kilobytes for the bench chains), so one sync.RWMutex guards it: the
// height → encoding map, the accounting counters and the tip. A
// separate commit mutex serializes the writers (Connect, Disconnect,
// Load, ImportVectors). A commit runs in two phases. Staging validates
// the spends and decodes the vectors they touch, in ascending height
// order, holding only the commit mutex, so readers are not held up.
// Then the staged vectors are encoded into one slab, and the entries
// and the new tip are installed under one brief write lock. Staging
// never mutates, so a commit that fails leaves the set untouched.
//
// Consistency model: every read takes the lock once, so any probe —
// single or batched — and any aggregate (MemUsage, UnspentCount, ...)
// sees the set either before or after a whole commit, never part of
// one. Snapshots (Save, ExportVectors) are exact: they copy pointers
// under the read lock and serialize outside it, so exports never
// stall a commit's staging and hold up its install only for the walk.
//
// Stored encodings are immutable: every mutation installs a freshly
// allocated encoding, so a snapshot's shallow copies stay stable after
// the lock is released. A commit preserves this by packing all of a
// block's replacement encodings into one freshly allocated slab and
// installing non-overlapping sub-slices of it. A slab stays reachable
// while any encoding in it is live, so a block's new vector can pin
// the re-encodings its commit replaced long ago. The set therefore
// counts the encoding bytes it has allocated since its last re-pack, a
// bound on what it can keep reachable; once a commit would take that
// count past twice the live encoded bytes, the commit's one slab is
// sized for the whole set and every other live encoding is copied into
// it as the commit installs. Go maps never release buckets either, so
// once the live vectors fall to a quarter of the count the map grew
// for, the vectors move into a right-sized map. Neither changes what
// MemUsage reports: that is the sum of the encodings plus a fixed
// per-vector charge, not the heap the set happens to hold.
package statusdb

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
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

// shrinkMinPeak is the smallest map peak worth shrinking from: a map
// that never held more vectors than this takes a few kilobytes.
const shrinkMinPeak = 64

// Spend identifies one output consumed by a new block.
type Spend struct {
	Height uint64
	Pos    uint32
}

// DB is the bit-vector set. The zero value is not usable; call New.
type DB struct {
	optimize bool

	// commitMu serializes the writers and is the consistency point
	// for invariant checks. Writers may read the fields mu guards
	// without mu, since only a writer changes them. Lock order:
	// commitMu → mu.
	commitMu sync.Mutex

	// cs is Connect's reusable staging state; guarded by commitMu.
	cs commitScratch

	// Heap bounds, guarded by commitMu. peak is the vector count the
	// map has grown to since it was last made. slabBytes counts the
	// encoding bytes allocated since the last re-pack (the re-pack's own
	// slab included), a bound on the encoding storage the set keeps
	// reachable.
	peak      int
	slabBytes int64

	// mu guards the set: a writer takes it exclusively only to
	// install a staged commit; readers take it shared.
	mu       sync.RWMutex
	vectors  map[uint64][]byte // height -> encoded vector (absent = fully spent)
	memBytes int64             // sum of encoded sizes + overhead
	dense    int64             // what the footprint would be without optimization
	ones     int64             // unspent outputs
	tip      uint64
	hasTip   bool
}

// New returns an empty bit-vector set. optimize selects the paper's
// sparse-vector optimization; pass false to measure the "EBV without
// optimization" ablation of Fig. 14.
func New(optimize bool) *DB {
	return &DB{optimize: optimize, vectors: make(map[uint64][]byte)}
}

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
// accounting deltas its installation adds. Connect stages the mutated
// vector itself (v, with its known encoded size) and defers
// serialization to a single encode pass between staging and install;
// Disconnect stages final encodings directly. size is the new
// encoding's length (0 for a delete) and oldSize the replaced one's
// (0 when the height held none).
type stagedEntry struct {
	h                uint64
	enc              []byte
	v                *bitvec.Vector
	size, oldSize    int
	mem, dense, ones int64
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
// copy, its height groups, and the staged entries. Guarded by
// commitMu; reused across commits so a warm connect allocates only
// the encode slab.
type commitScratch struct {
	spends []Spend
	sorter spendSorter
	groups []spendGroup
	staged []stagedEntry
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for h := range m {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// install applies staged entries and moves the tip under one write
// lock. Installation is pure writes and cannot fail; together with
// staging never mutating, this is the two-phase structure behind the
// all-or-nothing commit. A non-nil repack has room for every live
// encoding staged does not replace: each is copied into it and
// re-pointed there, which releases the slabs they pinned. staged must
// be ascending by height. After the install the map shrinks if the
// vectors fell to a quarter of its peak. Caller holds commitMu.
func (d *DB) install(staged []stagedEntry, tip uint64, hasTip bool, repack []byte) {
	d.mu.Lock()
	for _, e := range staged {
		if e.enc == nil {
			delete(d.vectors, e.h)
		} else {
			d.vectors[e.h] = e.enc
		}
		d.memBytes += e.mem
		d.dense += e.dense
		d.ones += e.ones
	}
	if repack != nil {
		for h, enc := range d.vectors {
			if _, ok := slices.BinarySearchFunc(staged, h, stagedAt); ok {
				continue
			}
			off := len(repack)
			repack = append(repack, enc...)
			d.vectors[h] = repack[off:len(repack):len(repack)]
		}
	}
	d.tip, d.hasTip = tip, hasTip
	d.mu.Unlock()
	d.shrinkMap()
}

// stagedAt orders a staged entry against a height, for binary search.
func stagedAt(e stagedEntry, h uint64) int { return cmp.Compare(e.h, h) }

// planRepack returns the bytes the staged encodings take (fresh) and
// the live encoded bytes the set holds once they are installed, and
// accounts the commit's allocation. It reports repack when the bytes
// allocated since the last re-pack would exceed twice the live ones:
// the commit then stores the whole set in new storage, and the count
// restarts at live. Caller holds commitMu.
func (d *DB) planRepack(staged []stagedEntry) (fresh, live int64, repack bool) {
	live = d.memBytes - vectorOverhead*int64(len(d.vectors))
	for i := range staged {
		fresh += int64(staged[i].size)
		live += int64(staged[i].size - staged[i].oldSize)
	}
	if d.slabBytes+fresh <= 2*live {
		d.slabBytes += fresh
		return fresh, live, false
	}
	d.slabBytes = live
	return fresh, live, true
}

// shrinkMap moves the vectors into a right-sized map once they fall to
// a quarter of the count the map grew for, and otherwise records a new
// peak. The copy is built under commitMu alone (no writer can change
// the map) and swapped in under a brief write lock. Caller holds
// commitMu.
func (d *DB) shrinkMap() {
	n := len(d.vectors)
	if n > d.peak {
		d.peak = n
		return
	}
	if d.peak < shrinkMinPeak || n > d.peak/4 {
		return
	}
	m := make(map[uint64][]byte, n)
	for h, enc := range d.vectors {
		m[h] = enc
	}
	d.mu.Lock()
	d.vectors = m
	d.mu.Unlock()
	d.peak = n
}

// Connect applies one block atomically: it registers the new block's
// all-ones vector of nOutputs bits, then clears the bit of every
// spend. It fails without side effects on unknown heights,
// out-of-range positions, double spends (including duplicates within
// the same call), and non-monotonic heights. When several heights are
// invalid, the reported error is the one at the lowest height (within
// a height, the first failing spend in input order).
//
// Spends are staged height by height in ascending order, so the first
// error staging meets is the one reported. Staged vectors are
// serialized in one batched encode pass (one slab allocation for the
// whole block) between validation and install, so the write lock is
// taken once and held only for map and counter updates (and, on a
// commit that re-packs, the copy of the live encodings into the same
// slab; see the package comment). A zero-output
// block stores no vector at all, so "absent = fully spent" holds for
// it from birth; it still advances the tip.
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

	for _, g := range cs.groups {
		if err := d.stageSpends(g); err != nil {
			d.releaseStaged()
			return err
		}
	}
	if nOutputs > 0 {
		nv := getVec()
		nv.ResetAllSet(nOutputs)
		size := d.encodedSize(nv)
		cs.staged = append(cs.staged, stagedEntry{
			h:     height,
			v:     nv,
			size:  size,
			mem:   int64(size) + vectorOverhead,
			dense: int64(nv.DenseSize()) + vectorOverhead,
			ones:  int64(nOutputs),
		})
	}

	fresh, live, repack := d.planRepack(cs.staged)
	var slab []byte
	if repack {
		slab = d.encodeStaged(int(live)) // room for the whole set
	} else {
		d.encodeStaged(int(fresh))
	}
	d.install(cs.staged, height, true, slab)
	d.releaseStaged()
	return nil
}

// encodeStaged serializes every staged vector into one slab of the
// given capacity for the whole block, installed as non-overlapping
// capacity-clamped sub-slices (preserving the encoding-immutability
// contract), and returns the slab. Vectors return to the pool as they
// are encoded. Caller holds commitMu.
func (d *DB) encodeStaged(capacity int) []byte {
	staged := d.cs.staged
	slab := make([]byte, 0, capacity)
	for i := range staged {
		e := &staged[i]
		if e.v == nil {
			continue
		}
		off := len(slab)
		slab = d.appendEncode(slab, e.v)
		e.enc = slab[off:len(slab):len(slab)]
		putVec(e.v)
		e.v = nil
	}
	return slab
}

// releaseStaged returns any still-staged vectors to the pool and drops
// the scratch's references to the last commit's entries, so a failed
// or finished commit does not pin encodings (or a whole slab) beyond
// its lifetime. Caller holds commitMu.
func (d *DB) releaseStaged() {
	cs := &d.cs
	for i := range cs.staged {
		if v := cs.staged[i].v; v != nil {
			putVec(v)
		}
		cs.staged[i] = stagedEntry{}
	}
	cs.staged = cs.staged[:0]
}

// stageSpends validates and stages one height's spends: decode the
// stored vector into a pooled scratch vector, clear the bits in input
// order, and record the mutated vector (nil when fully spent) with its
// accounting deltas. Serialization is deferred to encodeStaged. Caller
// holds commitMu, which is all a read of the map needs.
func (d *DB) stageSpends(g spendGroup) error {
	cs := &d.cs
	h := g.h
	enc, ok := d.vectors[h]
	if !ok {
		// Height below the tip with no vector: fully spent block.
		return fmt.Errorf("%w: height %d position %d", ErrDoubleSpend, h, cs.spends[g.lo].Pos)
	}
	v := getVec()
	if err := bitvec.DecodeInto(v, enc); err != nil {
		putVec(v)
		return fmt.Errorf("statusdb: corrupt vector at height %d: %v", h, err)
	}
	for _, sp := range cs.spends[g.lo:g.hi] {
		p := sp.Pos
		if int(p) >= v.Len() {
			putVec(v)
			return fmt.Errorf("%w: height %d position %d (block has %d outputs)", ErrOutOfRange, h, p, v.Len())
		}
		if !v.Clear(int(p)) {
			putVec(v)
			return fmt.Errorf("%w: height %d position %d", ErrDoubleSpend, h, p)
		}
	}
	se := stagedEntry{
		h:       h,
		oldSize: len(enc),
		mem:     -(int64(len(enc)) + vectorOverhead),
		dense:   -(int64(v.DenseSize()) + vectorOverhead),
		ones:    -int64(g.hi - g.lo),
	}
	if v.AllZero() {
		putVec(v)
	} else {
		se.v = v
		se.size = d.encodedSize(v)
		se.mem += int64(se.size) + vectorOverhead
		se.dense += int64(v.DenseSize()) + vectorOverhead
	}
	cs.staged = append(cs.staged, se)
	return nil
}

// IsUnspent probes one bit: the Unspent Validation primitive. A height
// at or below the tip whose vector is absent reports false — whether
// it was deleted as fully spent or was a zero-output block that never
// stored one — for any position. A height above the tip is an error.
func (d *DB) IsUnspent(height uint64, pos uint32) (bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.probe(height, pos)
}

// ProbeResult is one spend's answer from IsUnspentBatch, with exactly
// the semantics of an IsUnspent call for the same (height, pos).
type ProbeResult struct {
	Unspent bool
	Err     error
}

// IsUnspentBatch probes every spend under one read lock — the
// per-block Unspent Validation pattern. res[i] answers spends[i]
// exactly as IsUnspent would, and the whole batch sees the set before
// or after any commit it overlaps, never part of one.
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
	d.mu.RLock()
	for i := range spends {
		res[i].Unspent, res[i].Err = d.probe(spends[i].Height, spends[i].Pos)
	}
	d.mu.RUnlock()
	return res
}

// probe is the probe body; the caller holds the read lock.
func (d *DB) probe(height uint64, pos uint32) (bool, error) {
	if !d.hasTip || height > d.tip {
		return false, fmt.Errorf("%w: %d", ErrUnknownBlock, height)
	}
	enc, ok := d.vectors[height]
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
	d.mu.RLock()
	defer d.mu.RUnlock()
	enc, ok := d.vectors[height]
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
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tip, d.hasTip
}

// MemUsage returns the set's memory footprint in bytes: the sum of the
// (optimized) vector encodings plus fixed per-vector overhead. This is
// the EBV line of Fig. 14.
func (d *DB) MemUsage() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.memBytes
}

// DenseUsage returns what MemUsage would be with every vector encoded
// densely — the "EBV without optimization" line of Fig. 14.
func (d *DB) DenseUsage() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dense
}

// VectorCount returns the number of live vectors: fully spent blocks
// and zero-output blocks store none.
func (d *DB) VectorCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vectors)
}

// UnspentCount returns the total number of 1-bits across all vectors —
// the EBV equivalent of the UTXO count.
func (d *DB) UnspentCount() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ones
}

// Save writes a snapshot. Format: varint tip+1 (0 = empty), varint
// vector count, then per vector varint height + varint len + encoding,
// ascending by height. The consistency point is a brief pointer-copy
// walk (snapshotShallow); serialization runs outside the lock, so a
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
	b := newSetBuilder()
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
		if tipField == 0 || h >= tipField {
			return fmt.Errorf("statusdb: load vector %d: height %d beyond tip", i, h)
		}
		if err := b.add(h, enc); err != nil {
			return fmt.Errorf("statusdb: load vector %d: %v", i, err)
		}
	}
	tip := uint64(0)
	if tipField > 0 {
		tip = tipField - 1
	}
	d.replace(b, tip, tipField > 0)
	return nil
}

// setBuilder assembles a whole replacement set for Load and
// ImportVectors: it validates each vector and accounts it, touching
// nothing in the DB until replace.
type setBuilder struct {
	vectors          map[uint64][]byte
	mem, dense, ones int64
}

func newSetBuilder() *setBuilder {
	return &setBuilder{vectors: make(map[uint64][]byte)}
}

// add takes ownership of enc as height h's encoding. It rejects a
// repeated height, an encoding that does not decode canonically, and
// a vector with no 1-bit: the set never stores one ("absent = fully
// spent"), so accepting it would break CheckInvariants.
func (b *setBuilder) add(h uint64, enc []byte) error {
	if _, dup := b.vectors[h]; dup {
		return fmt.Errorf("duplicate height %d", h)
	}
	v, err := bitvec.Decode(enc)
	if err != nil {
		return fmt.Errorf("height %d: %v", h, err)
	}
	if v.AllZero() {
		return fmt.Errorf("height %d: vector has no unspent output", h)
	}
	b.vectors[h] = enc
	b.mem += int64(len(enc)) + vectorOverhead
	b.dense += int64(v.DenseSize()) + vectorOverhead
	b.ones += int64(v.Ones())
	return nil
}

// replace swaps in a built set and its tip under one write lock, so
// concurrent readers see either the old set or the new one, never a
// mix.
func (d *DB) replace(b *setBuilder, tip uint64, hasTip bool) {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	d.vectors = b.vectors
	d.memBytes, d.dense, d.ones = b.mem, b.dense, b.ones
	d.tip, d.hasTip = tip, hasTip
	d.mu.Unlock()
	d.peak = len(b.vectors)
	d.slabBytes = b.mem - vectorOverhead*int64(len(b.vectors))
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
// rather than a mid-reorg panic or a half-applied disconnect. Heights
// are staged in ascending order, so the error reported is the one at
// the lowest height.
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

	heights := sortedKeys(byHeight)
	staged := make([]stagedEntry, 0, len(heights)+1)
	for _, h := range heights {
		se, err := d.stageRestores(h, byHeight[h])
		if err != nil {
			return err
		}
		staged = append(staged, se)
	}

	tipEntry, err := d.stageTipRemoval(height)
	if err != nil {
		return err
	}
	if tipEntry != nil {
		staged = append(staged, *tipEntry)
	}

	var repack []byte
	if fresh, live, due := d.planRepack(staged); due {
		repack = make([]byte, 0, live-fresh)
	}
	if height == 0 {
		d.install(staged, 0, false, repack)
	} else {
		d.install(staged, height-1, true, repack)
	}
	return nil
}

// stageRestores validates and stages one height's restores: decode
// the stored vector (or rebuild a zero vector for a block deleted as
// fully spent), re-set the bits, and record the replacement encoding
// with its accounting deltas. Caller holds commitMu.
func (d *DB) stageRestores(h uint64, rs []Restore) (stagedEntry, error) {
	var v *bitvec.Vector
	hadOld := false
	oldLen := 0
	if enc, ok := d.vectors[h]; ok {
		var err error
		v, err = bitvec.Decode(enc)
		if err != nil {
			return stagedEntry{}, fmt.Errorf("statusdb: corrupt vector at height %d: %v", h, err)
		}
		hadOld, oldLen = true, len(enc)
	} else {
		if rs[0].NOutputs < 0 || rs[0].NOutputs > bitvec.MaxLen {
			return stagedEntry{}, fmt.Errorf("%w: height %d declared %d outputs", ErrOutOfRange, h, rs[0].NOutputs)
		}
		v = bitvec.New(rs[0].NOutputs)
	}
	for _, r := range rs {
		if r.NOutputs != v.Len() {
			return stagedEntry{}, fmt.Errorf("%w: height %d declared %d outputs, vector has %d", ErrOutOfRange, h, r.NOutputs, v.Len())
		}
		if int(r.Pos) >= v.Len() {
			return stagedEntry{}, fmt.Errorf("%w: height %d position %d", ErrOutOfRange, h, r.Pos)
		}
		if v.Get(int(r.Pos)) {
			return stagedEntry{}, fmt.Errorf("statusdb: restore of unspent bit %d:%d", h, r.Pos)
		}
		v.Set(int(r.Pos))
	}
	se := stagedEntry{h: h, oldSize: oldLen, ones: int64(len(rs))}
	if hadOld {
		// Setting bits never changes the length, so the dense size of
		// the old encoding equals the staged vector's — no second
		// decode of the stored bytes is needed (or performed) anywhere
		// past this point.
		se.mem -= int64(oldLen) + vectorOverhead
		se.dense -= int64(v.DenseSize()) + vectorOverhead
	}
	ne := d.encode(v)
	se.enc, se.size = ne, len(ne)
	se.mem += int64(len(ne)) + vectorOverhead
	se.dense += int64(v.DenseSize()) + vectorOverhead
	return se, nil
}

// stageTipRemoval stages dropping the tip block's vector. An absent
// tip vector (a zero-output block) stages nothing; a corrupt one is
// an error — raised before any mutation. Caller holds commitMu.
func (d *DB) stageTipRemoval(height uint64) (*stagedEntry, error) {
	enc, ok := d.vectors[height]
	if !ok {
		return nil, nil
	}
	v, err := bitvec.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("statusdb: corrupt tip vector: %v", err)
	}
	return &stagedEntry{
		h:       height,
		oldSize: len(enc),
		mem:     -(int64(len(enc)) + vectorOverhead),
		dense:   -(int64(v.DenseSize()) + vectorOverhead),
		ones:    -int64(v.Ones()),
	}, nil
}
