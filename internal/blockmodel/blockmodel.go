// Package blockmodel defines block headers and blocks for both
// systems under comparison, plus the miner-side assembly logic.
//
// Classic blocks package classic transactions and commit to a Merkle
// root over txids. EBV blocks package EBV transactions; the Merkle
// root covers the *tidy* serialization of each transaction — input
// hashes, outputs, locktime, and the miner-assigned stake position —
// while input bodies travel outside the tree (paper §IV-C2). Assembly
// of an EBV block walks the transactions in order, assigning each one
// a stake position equal to the number of outputs packaged before it
// (paper §IV-D2).
//
// One deliberate divergence from Bitcoin: the header carries its
// height. EBV validators resolve proofs by height constantly; baking
// the height into the header (as most post-Bitcoin chains do) keeps
// the lookup logic honest without changing any measured quantity.
package blockmodel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ebv/internal/bitvec"
	"ebv/internal/hashx"
	"ebv/internal/merkle"
	"ebv/internal/txmodel"
	"ebv/internal/varint"
)

// Coin is the number of base units per coin.
const Coin = 100_000_000

// HalvingInterval is the subsidy halving period in blocks.
const HalvingInterval = 210_000

// MaxBlockOutputs bounds the outputs in one block so positions fit the
// 16-bit sparse indices of the bit-vector set (paper §IV-E2).
const MaxBlockOutputs = bitvec.MaxLen

// MaxBlockBytes bounds the serialized size of a block's committed
// payload (1 MB, as in Bitcoin; EBV input bodies are not counted, as
// they are not part of the committed block).
const MaxBlockBytes = 1_000_000

// ErrAssemble wraps block assembly failures.
var ErrAssemble = errors.New("blockmodel: assemble")

// Subsidy returns the coinbase subsidy at the given height.
func Subsidy(height uint64) uint64 {
	halvings := height / HalvingInterval
	if halvings >= 64 {
		return 0
	}
	return (50 * Coin) >> halvings
}

// Header is a block header. Both systems share the layout; only the
// meaning of MerkleRoot differs (txids vs tidy leaf hashes).
type Header struct {
	Version    uint32
	Height     uint64
	PrevBlock  hashx.Hash
	MerkleRoot hashx.Hash
	TimeStamp  uint64
	Bits       uint32
	Nonce      uint64
}

// headerSize is the fixed encoded size of a header.
const headerSize = 4 + 8 + hashx.Size + hashx.Size + 8 + 4 + 8

// HeaderSize is the fixed encoded size of a header, exported for
// callers that peel a header off a serialized block (fork choice
// decodes headers before committing to full block validation).
const HeaderSize = headerSize

// Encode appends the fixed-width header serialization to dst.
func (h *Header) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Version)
	dst = binary.LittleEndian.AppendUint64(dst, h.Height)
	dst = append(dst, h.PrevBlock[:]...)
	dst = append(dst, h.MerkleRoot[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, h.TimeStamp)
	dst = binary.LittleEndian.AppendUint32(dst, h.Bits)
	return binary.LittleEndian.AppendUint64(dst, h.Nonce)
}

// DecodeHeader parses a header.
func DecodeHeader(data []byte) (Header, error) {
	var h Header
	if len(data) != headerSize {
		return h, fmt.Errorf("blockmodel: header of %d bytes, want %d", len(data), headerSize)
	}
	h.Version = binary.LittleEndian.Uint32(data)
	h.Height = binary.LittleEndian.Uint64(data[4:])
	copy(h.PrevBlock[:], data[12:])
	copy(h.MerkleRoot[:], data[44:])
	h.TimeStamp = binary.LittleEndian.Uint64(data[76:])
	h.Bits = binary.LittleEndian.Uint32(data[84:])
	h.Nonce = binary.LittleEndian.Uint64(data[88:])
	return h, nil
}

// Hash returns the header digest, the block's identity.
func (h *Header) Hash() hashx.Hash {
	var buf [headerSize]byte
	return hashx.DoubleSum(h.Encode(buf[:0]))
}

// MeetsTarget reports whether the header hash satisfies the simplified
// proof-of-work target: the hash must have at least Bits leading zero
// bits. Bits == 0 disables PoW (used by replay experiments, which
// validate historical chains rather than mine).
func (h *Header) MeetsTarget() bool {
	if h.Bits == 0 {
		return true
	}
	hash := h.Hash()
	var zeros uint32
	for _, b := range hash {
		if b == 0 {
			zeros += 8
			continue
		}
		for mask := byte(0x80); mask != 0 && b&mask == 0; mask >>= 1 {
			zeros++
		}
		break
	}
	return zeros >= h.Bits
}

// Mine searches nonces until the header meets its target. It is only
// used by examples (low difficulty); experiments replay pre-built
// chains.
func (h *Header) Mine() {
	for !h.MeetsTarget() {
		h.Nonce++
	}
}

// --- Classic block ---

// ClassicBlock is a Bitcoin-style block.
type ClassicBlock struct {
	Header Header
	Txs    []*txmodel.Tx
}

// TxLeaves returns the Merkle leaves: the txids in order.
func (b *ClassicBlock) TxLeaves() []hashx.Hash {
	leaves := make([]hashx.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		leaves[i] = tx.TxID()
	}
	return leaves
}

// TotalInputs counts non-coinbase inputs.
func (b *ClassicBlock) TotalInputs() int {
	n := 0
	for _, tx := range b.Txs {
		if !tx.IsCoinbase() {
			n += len(tx.Inputs)
		}
	}
	return n
}

// TotalOutputs counts all outputs in the block.
func (b *ClassicBlock) TotalOutputs() int {
	n := 0
	for _, tx := range b.Txs {
		n += len(tx.Outputs)
	}
	return n
}

// Encode appends the block serialization to dst.
func (b *ClassicBlock) Encode(dst []byte) []byte {
	dst = b.Header.Encode(dst)
	dst = binary.AppendUvarint(dst, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		txb := tx.Encode(nil)
		dst = binary.AppendUvarint(dst, uint64(len(txb)))
		dst = append(dst, txb...)
	}
	return dst
}

// DecodeClassicBlock parses a classic block.
func DecodeClassicBlock(data []byte) (*ClassicBlock, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("blockmodel: block shorter than header")
	}
	h, err := DecodeHeader(data[:headerSize])
	if err != nil {
		return nil, err
	}
	b := &ClassicBlock{Header: h}
	off := headerSize
	n, used := varint.Uvarint(data[off:])
	if used <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("blockmodel: bad tx count")
	}
	off += used
	b.Txs = make([]*txmodel.Tx, n)
	for i := range b.Txs {
		l, used := varint.Uvarint(data[off:])
		if used <= 0 || int(l) > len(data)-off-used {
			return nil, fmt.Errorf("blockmodel: truncated tx %d", i)
		}
		off += used
		tx, err := txmodel.DecodeTx(data[off : off+int(l)])
		if err != nil {
			return nil, fmt.Errorf("blockmodel: tx %d: %w", i, err)
		}
		b.Txs[i] = tx
		off += int(l)
	}
	if off != len(data) {
		return nil, fmt.Errorf("blockmodel: %d trailing bytes", len(data)-off)
	}
	return b, nil
}

// AssembleClassic packages transactions into a classic block on top of
// prev (zero hash for genesis), computing the Merkle root over txids.
func AssembleClassic(prevHash hashx.Hash, height uint64, timestamp uint64, txs []*txmodel.Tx) (*ClassicBlock, error) {
	if len(txs) == 0 || !txs[0].IsCoinbase() {
		return nil, fmt.Errorf("%w: first transaction must be a coinbase", ErrAssemble)
	}
	b := &ClassicBlock{
		Header: Header{Version: 1, Height: height, PrevBlock: prevHash, TimeStamp: timestamp},
		Txs:    txs,
	}
	if n := b.TotalOutputs(); n > MaxBlockOutputs {
		return nil, fmt.Errorf("%w: %d outputs exceeds %d", ErrAssemble, n, MaxBlockOutputs)
	}
	b.Header.MerkleRoot = merkle.Root(b.TxLeaves())
	return b, nil
}

// --- EBV block ---

// EBVBlock packages EBV transactions: the tidy forms are
// Merkle-committed; the input bodies travel alongside.
type EBVBlock struct {
	Header Header
	Txs    []*txmodel.EBVTx
}

// TxLeaves returns the Merkle leaves: tidy leaf hashes in order.
func (b *EBVBlock) TxLeaves() []hashx.Hash {
	leaves := make([]hashx.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		leaves[i] = tx.Tidy.LeafHash()
	}
	return leaves
}

// TotalInputs counts non-coinbase inputs (bodies).
func (b *EBVBlock) TotalInputs() int {
	n := 0
	for _, tx := range b.Txs {
		n += len(tx.Bodies)
	}
	return n
}

// TotalOutputs counts all outputs in the block — the length of the
// block's bit vector.
func (b *EBVBlock) TotalOutputs() int {
	n := 0
	for _, tx := range b.Txs {
		n += len(tx.Tidy.Outputs)
	}
	return n
}

// Encode appends the block serialization (tidy txs and bodies) to dst.
func (b *EBVBlock) Encode(dst []byte) []byte {
	dst = b.Header.Encode(dst)
	dst = binary.AppendUvarint(dst, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		dst = binary.AppendUvarint(dst, uint64(tx.EncodedSize()))
		dst = tx.Encode(dst)
	}
	return dst
}

// DecodeEBVBlock parses an EBV block. The result owns all of its
// memory (no aliasing of data).
func DecodeEBVBlock(data []byte) (*EBVBlock, error) {
	b := new(EBVBlock)
	if err := DecodeEBVBlockInto(b, data, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeEBVBlockInto parses an EBV block into b. With a non-nil arena
// it decodes borrowed bytes: transaction byte fields alias data and
// all slice storage comes from the arena, so the block is valid only
// while data stays alive and unmodified and a is not Reset, and must
// be treated as immutable after decode. With a nil arena it copies,
// and the block owns its memory (DecodeEBVBlock). The caller owns b
// (typically a reusable shell inside an ingest scratch); any previous
// contents are discarded.
func DecodeEBVBlockInto(b *EBVBlock, data []byte, a *txmodel.Arena) error {
	*b = EBVBlock{}
	if len(data) < headerSize {
		return fmt.Errorf("blockmodel: block shorter than header")
	}
	h, err := DecodeHeader(data[:headerSize])
	if err != nil {
		return err
	}
	b.Header = h
	off := headerSize
	n, used := varint.Uvarint(data[off:])
	if used <= 0 || n > 1<<20 {
		return fmt.Errorf("blockmodel: bad tx count")
	}
	off += used
	b.Txs = a.AllocTxPtrs(int(n))
	for i := range b.Txs {
		l, used := varint.Uvarint(data[off:])
		if used <= 0 || int(l) > len(data)-off-used {
			return fmt.Errorf("blockmodel: truncated tx %d", i)
		}
		off += used
		tx := a.AllocTx()
		if err := txmodel.DecodeEBVTxInto(tx, data[off:off+int(l)], a); err != nil {
			return fmt.Errorf("blockmodel: tx %d: %w", i, err)
		}
		b.Txs[i] = tx
		off += int(l)
	}
	if off != len(data) {
		return fmt.Errorf("blockmodel: %d trailing bytes", len(data)-off)
	}
	return nil
}

// AssembleEBV packages EBV transactions into a block: it assigns each
// transaction's stake position (the count of outputs packaged before
// it), then computes the Merkle root over the resulting tidy leaves.
// The stake positions therefore end up covered by every MBr into this
// block, which is what defeats fake positions.
func AssembleEBV(prevHash hashx.Hash, height uint64, timestamp uint64, txs []*txmodel.EBVTx) (*EBVBlock, error) {
	if len(txs) == 0 || !txs[0].Tidy.IsCoinbase() {
		return nil, fmt.Errorf("%w: first transaction must be a coinbase", ErrAssemble)
	}
	b := &EBVBlock{
		Header: Header{Version: 1, Height: height, PrevBlock: prevHash, TimeStamp: timestamp},
		Txs:    txs,
	}
	pos := uint32(0)
	for i, tx := range txs {
		if i > 0 && tx.Tidy.IsCoinbase() {
			return nil, fmt.Errorf("%w: transaction %d is an extra coinbase", ErrAssemble, i)
		}
		// Assigning the stake position mutates the tidy form, so any
		// leaf hash memoized before packaging is stale.
		tx.Tidy.StakePos = pos
		tx.Tidy.Invalidate()
		pos += uint32(len(tx.Tidy.Outputs))
	}
	if pos > MaxBlockOutputs {
		return nil, fmt.Errorf("%w: %d outputs exceeds %d", ErrAssemble, pos, MaxBlockOutputs)
	}
	b.Header.MerkleRoot = merkle.Root(b.TxLeaves())
	return b, nil
}

// CheckStakePositions verifies that every transaction's stake position
// equals the number of outputs preceding it — part of block-level
// validation in EBV.
func (b *EBVBlock) CheckStakePositions() error {
	pos := uint32(0)
	for i, tx := range b.Txs {
		if tx.Tidy.StakePos != pos {
			return fmt.Errorf("blockmodel: tx %d stake position %d, want %d", i, tx.Tidy.StakePos, pos)
		}
		pos += uint32(len(tx.Tidy.Outputs))
	}
	return nil
}
