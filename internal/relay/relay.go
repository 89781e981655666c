// Package relay implements compact block relay for EBV blocks
// (BIP-152 in spirit, adapted to the EBV transaction model): a new
// block is announced as its header, the miner-assigned stake position
// of every transaction, and one salted 8-byte short id per
// transaction. A receiver whose mempool already holds the
// transactions rebuilds the original block bytes without them ever
// crossing the wire again; only the transactions it lacks are fetched,
// by block-slot index.
//
// The short id is derived from the transaction's *pool-form* tidy
// leaf hash — the leaf hash with StakePos zero, which is exactly the
// mempool's transaction id, memoized at admission. Block transactions
// differ from their pooled form only in the miner-assigned StakePos,
// and the EBV encoding is canonical, so splicing the announced stake
// position into a pooled transaction's bytes (txmodel.SpliceStakePos)
// reproduces the block's bytes exactly. The id is salted with a per-connection nonce from the
// announcer's hello, so a collision crafted against one peer's salt
// buys nothing against any other peer.
//
// Reconstruction is trust-but-verify: Assemble re-decodes the
// reassembled bytes and checks the stake-position invariant, the
// Merkle root against the announced header, and every transaction's
// body-to-input-hash binding. Only bytes that pass all three — i.e.
// exactly the block the header commits to — reach SubmitBlockRaw, so
// a failure there is the announcer's offence, while any reconstruction
// mismatch surfaces here as ErrMismatch and degrades to a full-block
// fetch without blaming the peer.
package relay

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/txmodel"
	"ebv/internal/varint"
)

// ErrMismatch reports reassembled bytes that do not match the
// announced header's commitments (Merkle root, stake positions, or
// body bindings). It means reconstruction — not the block — is bad:
// the caller should fall back to a full-block fetch, not drop the
// announcing peer.
var ErrMismatch = errors.New("relay: reconstruction mismatch")

// maxBlockTxs mirrors the block decoder's transaction-count bound.
const maxBlockTxs = 1 << 20

// ShortID derives the salted short id of a transaction from its
// pool-form tidy leaf hash: the first 8 bytes (little-endian) of
// SHA-256(salt || leaf). The salt is the announcing side's 8-byte
// hello nonce for the connection, so short ids are comparable only
// between the two endpoints that exchanged it.
func ShortID(salt uint64, leaf hashx.Hash) uint64 {
	var buf [8 + hashx.Size]byte
	binary.LittleEndian.PutUint64(buf[:8], salt)
	copy(buf[8:], leaf[:])
	sum := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(sum[:8])
}

// PoolLeaf returns the pool-form identity of a block transaction: the
// tidy leaf hash with StakePos forced to zero — what the transaction
// hashed to before the miner packaged it, and the key the mempool
// indexes it under.
func PoolLeaf(tx *txmodel.EBVTx) hashx.Hash {
	if tx.Tidy.StakePos == 0 {
		return tx.Tidy.LeafHash()
	}
	t := tx.Tidy // value copy: the memo travels with it and is dropped below
	t.StakePos = 0
	t.Invalidate()
	return t.LeafHash()
}

// Prefilled is one transaction shipped inside the compact
// announcement itself: its block-slot index and its exact block-form
// encoding. The coinbase is always prefilled — it is new by
// construction and can never be in any mempool.
type Prefilled struct {
	Index uint32
	Raw   []byte
}

// Compact is one compact block announcement.
//
// Wire body layout (carried opaquely in a cmpctblock frame):
//
//	header (96 bytes)
//	tx count varint
//	stake position varint × tx count (every slot, prefilled included)
//	prefilled count varint
//	  per prefilled, ascending index: index varint | len varint | tx bytes
//	short id (8 bytes LE) × (tx count − prefilled count), in slot order
type Compact struct {
	Header   blockmodel.Header
	StakePos []uint32
	Prefill  []Prefilled
	ShortIDs []uint64
}

// Encode appends the compact announcement body to dst.
func (c *Compact) Encode(dst []byte) []byte {
	dst = c.Header.Encode(dst)
	dst = binary.AppendUvarint(dst, uint64(len(c.StakePos)))
	for _, sp := range c.StakePos {
		dst = binary.AppendUvarint(dst, uint64(sp))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Prefill)))
	for i := range c.Prefill {
		dst = binary.AppendUvarint(dst, uint64(c.Prefill[i].Index))
		dst = binary.AppendUvarint(dst, uint64(len(c.Prefill[i].Raw)))
		dst = append(dst, c.Prefill[i].Raw...)
	}
	for _, id := range c.ShortIDs {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	return dst
}

// DecodeCompact parses a compact announcement body, enforcing the
// structural invariants the reconstructor relies on: prefilled indexes
// strictly ascending and in range, and exactly one short id per
// non-prefilled slot.
func DecodeCompact(data []byte) (*Compact, error) {
	if len(data) < blockmodel.HeaderSize {
		return nil, fmt.Errorf("relay: compact block shorter than header")
	}
	hdr, err := blockmodel.DecodeHeader(data[:blockmodel.HeaderSize])
	if err != nil {
		return nil, err
	}
	c := &Compact{Header: hdr}
	off := blockmodel.HeaderSize
	count, n := varint.Uvarint(data[off:])
	// Every slot's stake position takes at least one byte, so a count
	// beyond the bytes left is malformed before anything is allocated.
	if n <= 0 || count == 0 || count > maxBlockTxs || count > uint64(len(data)-off-n) {
		return nil, fmt.Errorf("relay: bad compact tx count")
	}
	off += n
	c.StakePos = make([]uint32, count)
	for i := range c.StakePos {
		sp, n := varint.Uvarint(data[off:])
		if n <= 0 || sp > uint64(blockmodel.MaxBlockOutputs) {
			return nil, fmt.Errorf("relay: bad stake position for slot %d", i)
		}
		c.StakePos[i] = uint32(sp)
		off += n
	}
	npre, n := varint.Uvarint(data[off:])
	if n <= 0 || npre > count {
		return nil, fmt.Errorf("relay: bad prefilled count")
	}
	off += n
	c.Prefill = make([]Prefilled, npre)
	for i := range c.Prefill {
		idx, n := varint.Uvarint(data[off:])
		if n <= 0 || idx >= count {
			return nil, fmt.Errorf("relay: bad prefilled index")
		}
		if i > 0 && idx <= uint64(c.Prefill[i-1].Index) {
			return nil, fmt.Errorf("relay: prefilled indexes not ascending")
		}
		off += n
		l, n := varint.Uvarint(data[off:])
		if n <= 0 || l == 0 || uint64(len(data)-off-n) < l {
			return nil, fmt.Errorf("relay: truncated prefilled transaction %d", idx)
		}
		off += n
		c.Prefill[i] = Prefilled{Index: uint32(idx), Raw: data[off : off+int(l)]}
		off += int(l)
	}
	nshort := int(count) - int(npre)
	if len(data)-off != nshort*8 {
		return nil, fmt.Errorf("relay: %d short-id bytes for %d slots", len(data)-off, nshort)
	}
	c.ShortIDs = make([]uint64, nshort)
	for i := range c.ShortIDs {
		c.ShortIDs[i] = binary.LittleEndian.Uint64(data[off+i*8:])
	}
	return c, nil
}

// EncodeIndexes appends a getblocktxn body (the missing block-slot
// indexes, ascending) to dst.
func EncodeIndexes(dst []byte, idx []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	for _, i := range idx {
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	return dst
}

// DecodeIndexes parses a getblocktxn body.
func DecodeIndexes(data []byte) ([]int, error) {
	count, n := varint.Uvarint(data)
	// Every index takes at least one byte.
	if n <= 0 || count > maxBlockTxs || count > uint64(len(data)-n) {
		return nil, fmt.Errorf("relay: bad index count")
	}
	off := n
	idx := make([]int, count)
	for i := range idx {
		v, n := varint.Uvarint(data[off:])
		if n <= 0 || v > maxBlockTxs {
			return nil, fmt.Errorf("relay: bad index %d", i)
		}
		if i > 0 && int(v) <= idx[i-1] {
			return nil, fmt.Errorf("relay: indexes not ascending")
		}
		idx[i] = int(v)
		off += n
	}
	if off != len(data) {
		return nil, fmt.Errorf("relay: %d trailing index bytes", len(data)-off)
	}
	return idx, nil
}

// EncodeTxns appends a blocktxn body (the requested transactions'
// block-form encodings, in request order) to dst. An empty run is the
// "block unavailable" answer — the requester falls back to a full
// fetch.
func EncodeTxns(dst []byte, txs [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(txs)))
	for _, raw := range txs {
		dst = binary.AppendUvarint(dst, uint64(len(raw)))
		dst = append(dst, raw...)
	}
	return dst
}

// DecodeTxns parses a blocktxn body.
func DecodeTxns(data []byte) ([][]byte, error) {
	count, n := varint.Uvarint(data)
	// Every transaction takes at least two bytes: a length and a byte.
	if n <= 0 || count > maxBlockTxs || count > uint64(len(data)-n)/2 {
		return nil, fmt.Errorf("relay: bad blocktxn count")
	}
	off := n
	txs := make([][]byte, count)
	for i := range txs {
		l, n := varint.Uvarint(data[off:])
		if n <= 0 || l == 0 || uint64(len(data)-off-n) < l {
			return nil, fmt.Errorf("relay: truncated blocktxn transaction %d", i)
		}
		off += n
		txs[i] = data[off : off+int(l)]
		off += int(l)
	}
	if off != len(data) {
		return nil, fmt.Errorf("relay: %d trailing blocktxn bytes", len(data)-off)
	}
	return txs, nil
}
