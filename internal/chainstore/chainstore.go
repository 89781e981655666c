// Package chainstore provides flat-file block storage with an
// in-memory header index, the ledger layer under both node types.
//
// Blocks are appended to blocks.dat; a parallel index.dat records each
// block's header, offset, and length so reopening a store needs no
// scan. Headers stay in memory — both the baseline and the EBV node
// keep all headers resident (EBV's Existence Validation does a header
// lookup per input, paper §IV-D1).
//
// Per height the store keeps only the header and the body's offset: a
// body ends where the next one begins (the tip's at the end of the
// data), so the length index.dat records is implied. The hash → height
// index is a map from a 4-byte key of the block hash to the first
// height holding that key, each hit confirmed against the stored
// chain (a height's hash is the next header's PrevBlock), plus an
// exact map for the rare heights whose key another height already
// holds: about 136 bytes a height in all, against 208 for a full-hash
// map beside a lengths array.
package chainstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

// ErrUnknownHeight is returned for heights not in the store.
var ErrUnknownHeight = errors.New("chainstore: unknown height")

// ErrNoBody is returned by BlockBytes for a height stored header-only
// (via AppendHeader): fast-synced history below the snapshot tip has
// headers but no block bodies.
var ErrNoBody = errors.New("chainstore: block body not stored")

// ErrTruncateNoBody is returned by Truncate when the cut would land in
// (or expose as tip) header-only fast-synced history: those blocks
// cannot be disconnected or re-validated, so a reorg must never cross
// them.
var ErrTruncateNoBody = errors.New("chainstore: cannot truncate into header-only history")

// indexRecordSize: header (96 bytes) + offset (8) + length (8).
const indexRecordSize = 96 + 16

// Store is an append-only chain of blocks. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	data    *os.File
	index   *os.File
	headers []blockmodel.Header
	offsets []int64 // body start in blocks.dat; the body ends at the next offset (dataEnd for the tip)
	dataEnd int64

	// Block hash -> height, for fork-point search: byKey maps key(hash)
	// to the first height with that key, collide (made on first use)
	// holds every later height whose key was already taken.
	byKey   map[uint32]uint32
	collide map[hashx.Hash]uint64
	key     func(hashx.Hash) uint32
}

// hashKey is the index key of a block hash: its last four bytes.
// Proof of work zeroes a hash's leading bytes, never its trailing
// ones.
func hashKey(h hashx.Hash) uint32 {
	return binary.LittleEndian.Uint32(h[hashx.Size-4:])
}

// Open creates or reopens a store in dir.
func Open(dir string) (*Store, error) {
	return open(dir, hashKey)
}

// open is Open with the hash-index key function as a parameter, so
// tests can force key collisions.
func open(dir string, key func(hashx.Hash) uint32) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chainstore: %w", err)
	}
	data, err := os.OpenFile(filepath.Join(dir, "blocks.dat"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("chainstore: %w", err)
	}
	index, err := os.OpenFile(filepath.Join(dir, "index.dat"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		data.Close()
		return nil, fmt.Errorf("chainstore: %w", err)
	}
	s := &Store{data: data, index: index, byKey: make(map[uint32]uint32), key: key}
	if err := s.loadIndex(); err != nil {
		data.Close()
		index.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) loadIndex() error {
	st, err := s.index.Stat()
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	n := st.Size() / indexRecordSize
	if st.Size()%indexRecordSize != 0 {
		return fmt.Errorf("chainstore: index size %d not a record multiple", st.Size())
	}
	s.headers = make([]blockmodel.Header, 0, n)
	s.offsets = make([]int64, 0, n)
	buf := make([]byte, indexRecordSize)
	prev := hashx.ZeroHash
	for i := int64(0); i < n; i++ {
		if _, err := s.index.ReadAt(buf, i*indexRecordSize); err != nil {
			return fmt.Errorf("chainstore: read index %d: %w", i, err)
		}
		h, err := blockmodel.DecodeHeader(buf[:96])
		if err != nil {
			return fmt.Errorf("chainstore: index %d: %w", i, err)
		}
		if h.Height != uint64(i) {
			return fmt.Errorf("chainstore: index %d holds height %d", i, h.Height)
		}
		// Append and AppendHeader write only linked, contiguous records;
		// the hash index and the implied body lengths rely on both.
		if i > 0 && h.PrevBlock != prev {
			return fmt.Errorf("chainstore: index %d does not link to %d", i, i-1)
		}
		off := int64(binary.LittleEndian.Uint64(buf[96:]))
		if i > 0 && off != s.dataEnd {
			return fmt.Errorf("chainstore: index %d body at offset %d, previous ends at %d", i, off, s.dataEnd)
		}
		prev = h.Hash()
		s.headers = append(s.headers, h)
		s.offsets = append(s.offsets, off)
		s.indexHash(prev, h.Height)
		s.dataEnd = off + int64(binary.LittleEndian.Uint64(buf[104:]))
	}
	return nil
}

// indexHash adds height h, whose block hash is hash, to the hash index.
// Caller holds mu for writing.
func (s *Store) indexHash(hash hashx.Hash, h uint64) {
	k := s.key(hash)
	if _, taken := s.byKey[k]; !taken {
		s.byKey[k] = uint32(h)
		return
	}
	if s.collide == nil {
		s.collide = make(map[hashx.Hash]uint64)
	}
	s.collide[hash] = h
}

// hashAt returns the block hash of height h < Count(): the next
// header's PrevBlock, or the tip header's own hash. Caller holds mu.
func (s *Store) hashAt(h uint64) hashx.Hash {
	if h+1 < uint64(len(s.headers)) {
		return s.headers[h+1].PrevBlock
	}
	return s.headers[h].Hash()
}

// heightOf resolves a block hash through the hash index. Caller holds
// mu.
func (s *Store) heightOf(hash hashx.Hash) (uint64, bool) {
	if h, ok := s.byKey[s.key(hash)]; ok && s.hashAt(uint64(h)) == hash {
		return uint64(h), true
	}
	h, ok := s.collide[hash]
	return h, ok
}

// bodyLen returns the stored body length of height h < Count() (0 for
// a header-only record). Caller holds mu.
func (s *Store) bodyLen(h uint64) int64 {
	end := s.dataEnd
	if h+1 < uint64(len(s.offsets)) {
		end = s.offsets[h+1]
	}
	return end - s.offsets[h]
}

// Append stores a block's serialized bytes under the next height. The
// header's height must equal Count().
func (s *Store) Append(header blockmodel.Header, blockBytes []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if header.Height != uint64(len(s.headers)) {
		return fmt.Errorf("chainstore: append height %d, want %d", header.Height, len(s.headers))
	}
	if len(s.headers) > 0 {
		prev := s.headers[len(s.headers)-1]
		if header.PrevBlock != prev.Hash() {
			return fmt.Errorf("chainstore: block %d does not link to tip", header.Height)
		}
	}
	off := s.dataEnd
	if _, err := s.data.WriteAt(blockBytes, off); err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	var rec [indexRecordSize]byte
	header.Encode(rec[:0])
	binary.LittleEndian.PutUint64(rec[96:], uint64(off))
	binary.LittleEndian.PutUint64(rec[104:], uint64(len(blockBytes)))
	if _, err := s.index.WriteAt(rec[:], int64(len(s.headers))*indexRecordSize); err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	s.headers = append(s.headers, header)
	s.offsets = append(s.offsets, off)
	s.indexHash(header.Hash(), header.Height)
	s.dataEnd = off + int64(len(blockBytes))
	return nil
}

// AppendHeader stores a header with no block body under the next
// height — the record a fast-synced node keeps for history below its
// snapshot tip. Linkage rules match Append. A length-0 index record is
// unambiguous: a real block is never smaller than its 96-byte header.
func (s *Store) AppendHeader(header blockmodel.Header) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if header.Height != uint64(len(s.headers)) {
		return fmt.Errorf("chainstore: append height %d, want %d", header.Height, len(s.headers))
	}
	if len(s.headers) > 0 {
		prev := s.headers[len(s.headers)-1]
		if header.PrevBlock != prev.Hash() {
			return fmt.Errorf("chainstore: block %d does not link to tip", header.Height)
		}
	}
	var rec [indexRecordSize]byte
	header.Encode(rec[:0])
	binary.LittleEndian.PutUint64(rec[96:], uint64(s.dataEnd))
	binary.LittleEndian.PutUint64(rec[104:], 0)
	if _, err := s.index.WriteAt(rec[:], int64(len(s.headers))*indexRecordSize); err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	s.headers = append(s.headers, header)
	s.offsets = append(s.offsets, s.dataEnd)
	s.indexHash(header.Hash(), header.Height)
	return nil
}

// HasBody reports whether the block at height has its body stored
// (false for header-only records and unknown heights).
func (s *Store) HasBody(height uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return height < uint64(len(s.headers)) && s.bodyLen(height) > 0
}

// BlockBytes returns the serialized block at height.
func (s *Store) BlockBytes(height uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if height >= uint64(len(s.headers)) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	n := s.bodyLen(height)
	if n == 0 {
		return nil, fmt.Errorf("%w: height %d (fast-synced header)", ErrNoBody, height)
	}
	buf := make([]byte, n)
	if _, err := s.data.ReadAt(buf, s.offsets[height]); err != nil && err != io.EOF {
		return nil, fmt.Errorf("chainstore: %w", err)
	}
	return buf, nil
}

// Header returns the header at height.
func (s *Store) Header(height uint64) (blockmodel.Header, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if height >= uint64(len(s.headers)) {
		return blockmodel.Header{}, false
	}
	return s.headers[height], true
}

// TipHeight returns the height of the last block; ok is false when the
// store is empty.
func (s *Store) TipHeight() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.headers) == 0 {
		return 0, false
	}
	return uint64(len(s.headers) - 1), true
}

// TipHash returns the hash of the last block's header (zero hash for
// an empty store — the genesis prev).
func (s *Store) TipHash() hashx.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.headers) == 0 {
		return hashx.ZeroHash
	}
	return s.headers[len(s.headers)-1].Hash()
}

// Count returns the number of stored blocks.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.headers)
}

// Close releases the underlying files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err1 := s.data.Close()
	err2 := s.index.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Truncate drops blocks so that count blocks remain (reorg support).
// The data file keeps any orphaned bytes; they are overwritten by the
// next Append. Truncating so that the surviving tip would be a
// header-only record (fast-synced history) is refused with
// ErrTruncateNoBody: that history cannot be disconnected or
// re-validated, so no reorg may cut into it.
func (s *Store) Truncate(count int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if count < 0 || count > len(s.headers) {
		return fmt.Errorf("chainstore: truncate to %d of %d", count, len(s.headers))
	}
	if count == len(s.headers) {
		return nil
	}
	if count > 0 && s.bodyLen(uint64(count-1)) == 0 {
		return fmt.Errorf("%w: height %d has no stored body", ErrTruncateNoBody, count-1)
	}
	if count == 0 && s.bodyLen(0) == 0 {
		return fmt.Errorf("%w: height 0 has no stored body", ErrTruncateNoBody)
	}
	if err := s.index.Truncate(int64(count) * indexRecordSize); err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	for h := len(s.headers) - 1; h >= count; h-- {
		hash := s.hashAt(uint64(h))
		k := s.key(hash)
		if v, ok := s.byKey[k]; ok && v == uint32(h) {
			delete(s.byKey, k)
		} else {
			delete(s.collide, hash)
		}
	}
	s.dataEnd = 0
	if count > 0 {
		s.dataEnd = s.offsets[count]
	}
	s.headers = s.headers[:count]
	s.offsets = s.offsets[:count]
	return nil
}

// HeightByHash returns the height of the block with the given header
// hash, when it is part of the stored (active) chain.
func (s *Store) HeightByHash(h hashx.Hash) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.heightOf(h)
}

// Locator returns a block locator for the stored chain: the tip hash,
// the nine hashes below it, then exponentially spaced hashes back to
// genesis. A peer resolves it with LocatorFork to find the highest
// block both chains share, so headers after the fork point can be
// served in one round even when the requester sits on a side branch.
func (s *Store) Locator() []hashx.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.headers)
	if n == 0 {
		return nil
	}
	var loc []hashx.Hash
	step := 1
	for i := n - 1; i >= 0; i -= step {
		loc = append(loc, s.headers[i].Hash())
		if len(loc) > 10 {
			step *= 2
		}
		if i == 0 {
			break
		}
		if i-step < 0 {
			i = step // land exactly on genesis next iteration
		}
	}
	if last := s.headers[0].Hash(); loc[len(loc)-1] != last {
		loc = append(loc, last)
	}
	return loc
}

// LocatorFork resolves a peer's block locator against this chain: it
// returns the height of the first (highest) locator hash found here.
// ok is false when no locator entry is known, in which case headers
// should be served from genesis.
func (s *Store) LocatorFork(loc []hashx.Hash) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range loc {
		if height, ok := s.heightOf(h); ok {
			return height, true
		}
	}
	return 0, false
}
