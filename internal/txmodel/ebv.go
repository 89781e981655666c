package txmodel

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ebv/internal/hashx"
	"ebv/internal/merkle"
)

// TidyTx is the Merkle-committed form of an EBV transaction (paper
// §IV-C2, Fig. 9a): input bodies are replaced by their hashes, so a
// later transaction that embeds this one as ELs carries no nested
// proofs — the fix for the transaction-inflation problem.
//
// StakePos is the stake position the miner assigns when packaging the
// block (paper §IV-D2): the absolute position, within the whole block,
// of this transaction's first output. Because StakePos is part of the
// tidy serialization, it is covered by the block's Merkle tree and
// cannot be faked by a transaction proposer.
type TidyTx struct {
	Version     uint32
	InputHashes []hashx.Hash
	Outputs     []TxOut
	LockTime    uint32
	StakePos    uint32

	leafMemo memoHash // memoized LeafHash; see memo.go
}

// IsCoinbase reports whether the transaction is a coinbase (no
// inputs). Unlike classic transactions, EBV needs no null-outpoint
// marker: a coinbase simply has zero input hashes.
func (t *TidyTx) IsCoinbase() bool { return len(t.InputHashes) == 0 }

// Encode appends the canonical tidy serialization to dst. This is the
// exact byte string hashed into the block's Merkle tree.
func (t *TidyTx) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.Version))
	dst = binary.AppendUvarint(dst, uint64(len(t.InputHashes)))
	for i := range t.InputHashes {
		dst = append(dst, t.InputHashes[i][:]...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Outputs)))
	for i := range t.Outputs {
		dst = t.Outputs[i].encode(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(t.LockTime))
	return binary.AppendUvarint(dst, uint64(t.StakePos))
}

// EncodedSize returns len(Encode(nil)) without allocating.
func (t *TidyTx) EncodedSize() int {
	n := uvarintLen(uint64(t.Version)) + uvarintLen(uint64(len(t.InputHashes)))
	n += len(t.InputHashes) * hashx.Size
	n += uvarintLen(uint64(len(t.Outputs)))
	for i := range t.Outputs {
		n += t.Outputs[i].EncodedSize()
	}
	return n + uvarintLen(uint64(t.LockTime)) + uvarintLen(uint64(t.StakePos))
}

// LeafHash returns the transaction's digest as it appears as a Merkle
// leaf: double SHA-256 over the tidy serialization. It doubles as the
// EBV transaction id. The digest is memoized on first use; callers
// that mutate the struct afterwards must Invalidate.
func (t *TidyTx) LeafHash() hashx.Hash {
	if h, ok := t.leafMemo.get(); ok {
		return h
	}
	h := hashx.DoubleSumEncoded(t.EncodedSize(), t.Encode)
	t.leafMemo.put(h)
	return h
}

// Invalidate drops the memoized leaf hash. Builders and tests that
// mutate a tidy transaction in place after hashing it must call this
// before the next LeafHash; the wire-decode path never needs it.
func (t *TidyTx) Invalidate() { t.leafMemo.clear() }

// decodeTidyInto parses a tidy transaction in-stream into t. Slice
// storage comes from the reader (arena-backed in borrowed mode).
func decodeTidyInto(t *TidyTx, r *reader) {
	t.Version = r.uint32v()
	nin := r.uvarint()
	if nin > MaxTxInputs {
		r.fail("%d input hashes exceeds limit", nin)
		return
	}
	t.InputHashes = r.arena.AllocHashes(int(nin))
	for i := range t.InputHashes {
		t.InputHashes[i] = r.hash()
	}
	nout := r.uvarint()
	if nout > MaxTxOutputs {
		r.fail("%d outputs exceeds limit", nout)
		return
	}
	t.Outputs = r.arena.AllocOuts(int(nout))
	for i := range t.Outputs {
		t.Outputs[i] = decodeTxOut(r)
	}
	t.LockTime = r.uint32v()
	t.StakePos = r.uint32v()
}

// DecodeTidyTx parses a tidy transaction, requiring full consumption.
func DecodeTidyTx(data []byte) (*TidyTx, error) {
	r := reader{data: data}
	t := &TidyTx{}
	decodeTidyInto(t, &r)
	if err := r.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// InputBody carries the per-input proof data of an EBV transaction
// (paper Fig. 7): the Merkle branch MBr, the unlocking script Us, the
// enhanced locking script ELs (the previous transaction in tidy form),
// the height of the block containing the spent output, and the
// relative position of that output within ELs.
type InputBody struct {
	Branch       merkle.Branch
	UnlockScript []byte
	PrevTx       TidyTx
	Height       uint64
	RelIndex     uint32

	hashMemo memoHash // memoized Hash; see memo.go
}

// AbsPosition returns the spent output's absolute position within its
// block: the previous transaction's stake position plus the relative
// position (paper Fig. 11). This derived value is what Unspent
// Validation probes in the bit vector; because StakePos comes from the
// Merkle-committed ELs rather than from the proposer, positions cannot
// be faked.
func (b *InputBody) AbsPosition() uint32 { return b.PrevTx.StakePos + b.RelIndex }

// SpentOutput returns the output this input spends. The bool is false
// if RelIndex is out of range.
func (b *InputBody) SpentOutput() (*TxOut, bool) {
	if int(b.RelIndex) >= len(b.PrevTx.Outputs) {
		return nil, false
	}
	return &b.PrevTx.Outputs[b.RelIndex], true
}

// Encode appends the canonical body serialization to dst. The hash of
// these bytes is the input hash committed in the tidy transaction.
func (b *InputBody) Encode(dst []byte) []byte {
	dst = b.Branch.Encode(dst)
	dst = appendVarBytes(dst, b.UnlockScript)
	// Nested tidy encoding in place: the length prefix comes from
	// EncodedSize, so no intermediate buffer is materialized.
	dst = binary.AppendUvarint(dst, uint64(b.PrevTx.EncodedSize()))
	dst = b.PrevTx.Encode(dst)
	dst = binary.AppendUvarint(dst, b.Height)
	return binary.AppendUvarint(dst, uint64(b.RelIndex))
}

// EncodedSize returns len(Encode(nil)) without allocating.
func (b *InputBody) EncodedSize() int {
	prevLen := b.PrevTx.EncodedSize()
	return b.Branch.EncodedSize() +
		uvarintLen(uint64(len(b.UnlockScript))) + len(b.UnlockScript) +
		uvarintLen(uint64(prevLen)) + prevLen +
		uvarintLen(b.Height) + uvarintLen(uint64(b.RelIndex))
}

// Hash returns the input hash: double SHA-256 over the body encoding.
// The digest is memoized on first use; callers that mutate the body
// (or its nested PrevTx) afterwards must Invalidate.
func (b *InputBody) Hash() hashx.Hash {
	if h, ok := b.hashMemo.get(); ok {
		return h
	}
	h := b.hashUncached()
	b.hashMemo.put(h)
	return h
}

// hashUncached computes the body hash without touching the memo.
func (b *InputBody) hashUncached() hashx.Hash {
	return hashx.DoubleSumEncoded(b.EncodedSize(), b.Encode)
}

// Invalidate drops the memoized body hash and the nested tidy
// transaction's leaf memo. Builders and tests that mutate a body in
// place after hashing it must call this.
func (b *InputBody) Invalidate() {
	b.hashMemo.clear()
	b.PrevTx.Invalidate()
}

// maxBodyBytes bounds a nested tidy encoding inside a body.
const maxBodyBytes = 1 << 20

func decodeBodyInto(b *InputBody, r *reader) {
	if r.err != nil {
		return
	}
	br, n, err := merkle.DecodeBranchArena(r.data[r.off:], r.arena)
	if err != nil {
		r.fail("branch: %v", err)
		return
	}
	r.off += n
	b.Branch = br
	b.UnlockScript = r.varbytes(MaxScriptBytes)
	prev := r.varbytes(maxBodyBytes)
	if r.err != nil {
		return
	}
	pr := reader{data: prev, arena: r.arena}
	decodeTidyInto(&b.PrevTx, &pr)
	if err := pr.done(); err != nil {
		r.fail("nested tidy tx: %v", err)
		return
	}
	b.Height = r.uvarint()
	b.RelIndex = r.uint32v()
}

// EBVTx is a complete EBV transaction: the tidy form plus one input
// body per input hash. Bodies travel with the transaction but are not
// part of the Merkle leaf.
type EBVTx struct {
	Tidy   TidyTx
	Bodies []InputBody

	sigMemo memoHash // memoized SigHash; see memo.go
}

// Consistent verifies that each body hashes to the corresponding
// input hash in the tidy form. This binds the transported proofs to
// the Merkle-committed transaction.
func (t *EBVTx) Consistent() error {
	if len(t.Bodies) != len(t.Tidy.InputHashes) {
		return fmt.Errorf("txmodel: %d bodies for %d input hashes", len(t.Bodies), len(t.Tidy.InputHashes))
	}
	for i := range t.Bodies {
		if got := t.Bodies[i].Hash(); got != t.Tidy.InputHashes[i] {
			return fmt.Errorf("txmodel: body %d hash %s != committed %s", i, got.Short(), t.Tidy.InputHashes[i].Short())
		}
	}
	return nil
}

// Encode appends the full transaction (tidy + bodies) to dst. Nested
// structures are encoded in place behind EncodedSize length prefixes —
// no per-part intermediate buffers.
func (t *EBVTx) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.Tidy.EncodedSize()))
	dst = t.Tidy.Encode(dst)
	dst = binary.AppendUvarint(dst, uint64(len(t.Bodies)))
	for i := range t.Bodies {
		dst = binary.AppendUvarint(dst, uint64(t.Bodies[i].EncodedSize()))
		dst = t.Bodies[i].Encode(dst)
	}
	return dst
}

// EncodedSize returns len(Encode(nil)) without allocating.
func (t *EBVTx) EncodedSize() int {
	tl := t.Tidy.EncodedSize()
	n := uvarintLen(uint64(tl)) + tl + uvarintLen(uint64(len(t.Bodies)))
	for i := range t.Bodies {
		bl := t.Bodies[i].EncodedSize()
		n += uvarintLen(uint64(bl)) + bl
	}
	return n
}

// DecodeEBVTx parses a full EBV transaction. The result owns all of
// its memory (no aliasing of data).
func DecodeEBVTx(data []byte) (*EBVTx, error) {
	r := reader{data: data}
	t := &EBVTx{}
	decodeEBVTxInto(t, &r)
	if err := r.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeEBVTxInto parses a full EBV transaction into t using
// borrowed-bytes decoding: byte fields (unlocking scripts, locking
// scripts) alias data, and slice storage comes from the arena. The
// decoded transaction is valid only while data stays alive and
// unmodified and a is not Reset; it must be treated as immutable —
// mutating it through Invalidate-and-edit also mutates data. It
// accepts exactly the inputs DecodeEBVTx accepts, with identical
// errors and identical re-encoding.
func DecodeEBVTxInto(t *EBVTx, data []byte, a *Arena) error {
	*t = EBVTx{}
	r := reader{data: data, arena: a}
	decodeEBVTxInto(t, &r)
	return r.done()
}

// SpliceStakePos returns a new encoding of the transaction raw
// encodes, with its stake position set to pos. raw must be the pool
// form — a canonical EBV transaction encoding whose stake position is
// zero — and anything else is rejected with an error wrapping
// ErrDecode. The result is raw with two fields rewritten: the tidy
// part's final StakePos varint and the tidy length prefix ahead of it.
// Nothing is re-encoded, so the result is exactly what encoding the
// decoded transaction with StakePos = pos produces. raw is checked
// with a borrowed decode into pooled scratch; the result is a fresh
// slice that shares nothing with raw or the scratch.
func SpliceStakePos(raw []byte, pos uint32) ([]byte, error) {
	s := spliceScratch.Get().(*spliceCheck)
	s.arena.Reset()
	err := DecodeEBVTxInto(&s.tx, raw, &s.arena)
	stake := s.tx.Tidy.StakePos
	spliceScratch.Put(s)
	if err != nil {
		return nil, err
	}
	if stake != 0 {
		return nil, fmt.Errorf("%w: stake position %d, want the pool form's 0", ErrDecode, stake)
	}
	// The check proved raw is uvarint(tidy length) ‖ tidy ‖ bodies with
	// the tidy ending in the one-byte varint 0x00.
	tidyLen, n := binary.Uvarint(raw)
	end := n + int(tidyLen)
	spliced := tidyLen - 1 + uint64(uvarintLen(uint64(pos)))
	out := make([]byte, 0, uvarintLen(spliced)+int(spliced)+len(raw)-end)
	out = binary.AppendUvarint(out, spliced)
	out = append(out, raw[n:end-1]...)
	out = binary.AppendUvarint(out, uint64(pos))
	return append(out, raw[end:]...), nil
}

// spliceCheck is SpliceStakePos's decode scratch.
type spliceCheck struct {
	tx    EBVTx
	arena Arena
}

var spliceScratch = sync.Pool{New: func() any { return new(spliceCheck) }}

func decodeEBVTxInto(t *EBVTx, r *reader) {
	tidy := r.varbytes(maxBodyBytes)
	if r.err != nil {
		return
	}
	tr := reader{data: tidy, arena: r.arena}
	decodeTidyInto(&t.Tidy, &tr)
	if err := tr.done(); err != nil {
		r.fail("tidy: %v", err)
		return
	}
	nb := r.uvarint()
	if nb > MaxTxInputs {
		r.fail("%d bodies exceeds limit", nb)
		return
	}
	t.Bodies = r.arena.AllocBodies(int(nb))
	for i := range t.Bodies {
		body := r.varbytes(maxBodyBytes)
		if r.err != nil {
			return
		}
		br := reader{data: body, arena: r.arena}
		decodeBodyInto(&t.Bodies[i], &br)
		if err := br.done(); err != nil {
			r.fail("body %d: %v", i, err)
			return
		}
	}
}

// SigHash computes the message signed by every input of an EBV
// transaction. It commits to what is spent — the previous tidy
// transaction's leaf hash, the block height, and the relative index —
// and to the new outputs and locktime. Unlocking scripts and therefore
// input hashes are excluded, which breaks the circularity between
// signatures and the input hashes that commit to them.
//
// StakePos of the *new* transaction is likewise excluded (the miner
// assigns it after signing); the stake position of the *previous*
// transaction is covered via its leaf hash.
func (t *EBVTx) SigHash() hashx.Hash {
	if h, ok := t.sigMemo.get(); ok {
		return h
	}
	h := hashx.DoubleSumEncoded(0, t.appendSigPreimage)
	t.sigMemo.put(h)
	return h
}

// appendSigPreimage appends the SigHash preimage to dst.
func (t *EBVTx) appendSigPreimage(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.Tidy.Version))
	dst = binary.AppendUvarint(dst, uint64(len(t.Bodies)))
	for i := range t.Bodies {
		b := &t.Bodies[i]
		leaf := b.PrevTx.LeafHash()
		dst = append(dst, leaf[:]...)
		dst = binary.AppendUvarint(dst, b.Height)
		dst = binary.AppendUvarint(dst, uint64(b.RelIndex))
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Tidy.Outputs)))
	for i := range t.Tidy.Outputs {
		dst = t.Tidy.Outputs[i].encode(dst)
	}
	return binary.AppendUvarint(dst, uint64(t.Tidy.LockTime))
}

// Invalidate drops every memoized digest on the transaction: the
// sighash, the tidy leaf hash, and each body hash (with its nested
// leaf memo). Builders and tests that mutate a transaction in place
// after hashing it must call this (SealInputHashes does so itself).
func (t *EBVTx) Invalidate() {
	t.sigMemo.clear()
	t.Tidy.Invalidate()
	for i := range t.Bodies {
		t.Bodies[i].Invalidate()
	}
}

// SealInputHashes recomputes the tidy input hashes from the bodies.
// Proposers call this after filling in unlocking scripts. Because
// sealing follows in-place mutation, it drops every memoized digest
// first, and hashes the bodies without filling their memos — a
// post-seal tamper must still be caught by Consistent, which a
// freshly filled memo would mask.
func (t *EBVTx) SealInputHashes() {
	t.Invalidate()
	t.Tidy.InputHashes = make([]hashx.Hash, len(t.Bodies))
	for i := range t.Bodies {
		t.Tidy.InputHashes[i] = t.Bodies[i].hashUncached()
	}
}

// OutputSum returns the total output value; false on overflow.
func (t *EBVTx) OutputSum() (uint64, bool) {
	var sum uint64
	for i := range t.Tidy.Outputs {
		v := t.Tidy.Outputs[i].Value
		if sum+v < sum || sum+v > MaxValue {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

// InputSum returns the total value of the outputs the bodies claim to
// spend; false if any relative index is out of range or on overflow.
func (t *EBVTx) InputSum() (uint64, bool) {
	var sum uint64
	for i := range t.Bodies {
		out, ok := t.Bodies[i].SpentOutput()
		if !ok {
			return 0, false
		}
		if sum+out.Value < sum || sum+out.Value > MaxValue {
			return 0, false
		}
		sum += out.Value
	}
	return sum, true
}
