package relay

import (
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/varint"
)

// BlockInfo is the sender side of compact relay: everything needed to
// announce one block compactly and to answer getblocktxn for it,
// computed once per block and shared across peers. It pins the block's
// raw bytes, the byte range of each transaction's encoding within
// them, the assigned stake positions, and each transaction's pool-form
// leaf hash (the salt-independent half of the short id — salting is
// per-connection and happens in Compact).
type BlockInfo struct {
	Raw    []byte
	Header blockmodel.Header
	Hash   hashx.Hash

	stake  []uint32
	leaves []hashx.Hash
	spans  [][2]int // [start, end) of each tx's encoding in Raw (length prefix excluded)
}

// NewBlockInfo indexes an EBV block for compact announcement from its
// bytes and blk, their decode. blk may borrow raw and a scratch arena:
// the info copies raw at its exact size and keeps only values read
// from blk, so both may be recycled once it returns.
func NewBlockInfo(raw []byte, blk *blockmodel.EBVBlock) *BlockInfo {
	bi := &BlockInfo{
		Raw:    append(make([]byte, 0, len(raw)), raw...),
		Header: blk.Header,
		Hash:   blk.Header.Hash(),
		stake:  make([]uint32, len(blk.Txs)),
		leaves: make([]hashx.Hash, len(blk.Txs)),
		spans:  make([][2]int, len(blk.Txs)),
	}
	for i, tx := range blk.Txs {
		bi.stake[i] = tx.Tidy.StakePos
		bi.leaves[i] = PoolLeaf(tx)
	}
	// Re-walk the raw framing for the per-tx byte ranges; blk's decode
	// already proved it well-formed.
	off := blockmodel.HeaderSize
	_, n := varint.Uvarint(raw[off:])
	off += n
	for i := range bi.spans {
		l, n := varint.Uvarint(raw[off:])
		off += n
		bi.spans[i] = [2]int{off, off + int(l)}
		off += int(l)
	}
	return bi
}

// TxCount returns the number of transactions in the block.
func (bi *BlockInfo) TxCount() int { return len(bi.spans) }

// TxBytes returns the exact encoding of transaction i as it appears
// in the block (aliasing Raw).
func (bi *BlockInfo) TxBytes(i int) ([]byte, error) {
	if i < 0 || i >= len(bi.spans) {
		return nil, fmt.Errorf("relay: tx index %d out of range (%d txs)", i, len(bi.spans))
	}
	s := bi.spans[i]
	return bi.Raw[s[0]:s[1]], nil
}

// Compact builds the announcement for one connection: short ids under
// salt for every transaction except the coinbase, which is always
// prefilled (it is new by construction, so no mempool can hold it).
func (bi *BlockInfo) Compact(salt uint64) *Compact {
	c := &Compact{
		Header:   bi.Header,
		StakePos: bi.stake,
		Prefill:  []Prefilled{{Index: 0, Raw: bi.Raw[bi.spans[0][0]:bi.spans[0][1]]}},
		ShortIDs: make([]uint64, 0, len(bi.spans)-1),
	}
	for i := 1; i < len(bi.leaves); i++ {
		c.ShortIDs = append(c.ShortIDs, ShortID(salt, bi.leaves[i]))
	}
	return c
}
