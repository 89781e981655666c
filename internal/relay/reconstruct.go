package relay

import (
	"encoding/binary"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/merkle"
	"ebv/internal/txmodel"
)

// TxSource is the mempool view reconstruction draws from. Both
// methods must be safe for concurrent use; LeafHashes is a snapshot
// and LookupByLeaf may miss a transaction evicted since — the
// reconstructor then simply requests that slot.
type TxSource interface {
	// LookupByLeaf returns the pool-form encoding (StakePos zero) of
	// the pooled transaction whose pool-form tidy leaf hash is leaf.
	// The bytes are the source's own and are only read.
	LookupByLeaf(leaf hashx.Hash) ([]byte, bool)
	// LeafHashes returns a snapshot of every pooled transaction's leaf
	// hash.
	LeafHashes() []hashx.Hash
}

// Reconstructor rebuilds one announced block's original bytes from a
// compact announcement plus a mempool. Not safe for concurrent use;
// the p2p layer serializes access per pending block.
type Reconstructor struct {
	header blockmodel.Header
	hash   hashx.Hash
	stake  []uint32
	slots  [][]byte // per-slot block-form tx encoding; nil = missing
	left   int      // slots still nil
}

// NewReconstructor resolves a compact announcement against src under
// the announcer's salt. Prefilled slots are taken as-is; every other
// slot is matched by short id against the pool's leaves. A short id
// matching two pooled leaves is ambiguous and its slots are left
// missing rather than guessed — the crafted-collision case degrades to
// an extra getblocktxn, never to a wrong block (Assemble would catch
// that too, but not knowing beats re-fetching everything). The
// announced hash (header digest) is available immediately via Hash.
func NewReconstructor(c *Compact, salt uint64, src TxSource) *Reconstructor {
	r := &Reconstructor{
		header: c.Header,
		hash:   c.Header.Hash(),
		stake:  c.StakePos,
		slots:  make([][]byte, len(c.StakePos)),
		left:   len(c.StakePos),
	}
	prefilled := make(map[int][]byte, len(c.Prefill))
	for i := range c.Prefill {
		prefilled[int(c.Prefill[i].Index)] = c.Prefill[i].Raw
	}

	// Salted view of the pool, leaves held by value. A short id two
	// pooled leaves collide on under this salt is ambiguous: it is
	// recorded in ambiguous and its byShort value means nothing.
	leaves := src.LeafHashes()
	byShort := make(map[uint64]hashx.Hash, len(leaves))
	var ambiguous map[uint64]bool
	for _, leaf := range leaves {
		id := ShortID(salt, leaf)
		if _, dup := byShort[id]; dup {
			if ambiguous == nil {
				ambiguous = make(map[uint64]bool)
			}
			ambiguous[id] = true
			continue
		}
		byShort[id] = leaf
	}

	short := c.ShortIDs
	for i := range r.slots {
		if raw, ok := prefilled[i]; ok {
			r.slots[i] = raw
			r.left--
			continue
		}
		if len(short) == 0 {
			break // malformed counts are rejected by DecodeCompact; belt and braces
		}
		id := short[0]
		short = short[1:]
		leaf, ok := byShort[id]
		if !ok || ambiguous[id] {
			continue // unknown or ambiguous: request this slot
		}
		pooled, ok := src.LookupByLeaf(leaf)
		if !ok {
			continue // evicted since the snapshot
		}
		// Splice the announced stake position into a copy of the pooled
		// bytes; the pool's own stay in their pool form. Bytes that are
		// not a pool-form transaction leave the slot to be requested.
		raw, err := txmodel.SpliceStakePos(pooled, r.stake[i])
		if err != nil {
			continue
		}
		r.slots[i] = raw
		r.left--
	}
	return r
}

// Hash returns the announced block's identity (header digest).
func (r *Reconstructor) Hash() hashx.Hash { return r.hash }

// Height returns the announced block's height.
func (r *Reconstructor) Height() uint64 { return r.header.Height }

// Missing returns the ascending block-slot indexes still unresolved —
// the body of the getblocktxn request.
func (r *Reconstructor) Missing() []int {
	var idx []int
	for i, s := range r.slots {
		if s == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// Complete reports whether every slot is resolved.
func (r *Reconstructor) Complete() bool { return r.left == 0 }

// Fill resolves slot i with raw transaction bytes from a blocktxn
// answer. Filling an already-resolved slot is an error: an answer
// naming a slot we never asked for is not following the protocol.
func (r *Reconstructor) Fill(i int, raw []byte) error {
	if i < 0 || i >= len(r.slots) {
		return fmt.Errorf("relay: fill index %d out of range (%d slots)", i, len(r.slots))
	}
	if r.slots[i] != nil {
		return fmt.Errorf("relay: slot %d filled twice", i)
	}
	r.slots[i] = raw
	r.left--
	return nil
}

// Assemble concatenates the resolved slots into the full block
// encoding and verifies it against the announcement's commitments:
// the stake-position invariant, the Merkle root over the tidy leaves,
// and every transaction's body-to-input-hash binding (Consistent).
// Bytes that pass are exactly the block the announced header commits
// to — identical to what a full-block fetch would have delivered — so
// any later validation failure is the block's own. Failure here is
// ErrMismatch: a reconstruction problem (collision, wrong blocktxn
// answer, stale announcement), answered by falling back to the
// full-block path.
func (r *Reconstructor) Assemble() ([]byte, error) {
	if r.left != 0 {
		return nil, fmt.Errorf("relay: assemble with %d slots missing", r.left)
	}
	size := blockmodel.HeaderSize + uvarintLen(uint64(len(r.slots)))
	for _, s := range r.slots {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	raw := make([]byte, 0, size)
	raw = r.header.Encode(raw)
	raw = binary.AppendUvarint(raw, uint64(len(r.slots)))
	for _, s := range r.slots {
		raw = binary.AppendUvarint(raw, uint64(len(s)))
		raw = append(raw, s...)
	}

	// The check borrows a pooled scratch; raw itself stays a fresh
	// allocation, since it outlives this call.
	s := ingest.Get()
	defer s.Release()
	blk, err := s.DecodeEBVBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMismatch, err)
	}
	if err := blk.CheckStakePositions(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMismatch, err)
	}
	for i, tx := range blk.Txs {
		if tx.Tidy.StakePos != r.stake[i] {
			return nil, fmt.Errorf("%w: slot %d stake position %d, announced %d",
				ErrMismatch, i, tx.Tidy.StakePos, r.stake[i])
		}
		if err := tx.Consistent(); err != nil {
			return nil, fmt.Errorf("%w: slot %d: %v", ErrMismatch, i, err)
		}
	}
	if root := merkle.Root(blk.TxLeaves()); root != r.header.MerkleRoot {
		return nil, fmt.Errorf("%w: merkle root %s, announced %s",
			ErrMismatch, root.Short(), r.header.MerkleRoot.Short())
	}
	return raw, nil
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(buf[:0], v))
}
