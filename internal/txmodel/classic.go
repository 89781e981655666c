package txmodel

import (
	"encoding/binary"
	"fmt"

	"ebv/internal/hashx"
)

// CoinbaseIndex marks the prevout index of a coinbase input.
const CoinbaseIndex = ^uint32(0)

// OutPoint identifies an output of a previous transaction: the
// (hash, position) pair the paper calls an outpoint (§II-A).
type OutPoint struct {
	TxID  hashx.Hash
	Index uint32
}

// String renders the outpoint as txid:index.
func (o OutPoint) String() string { return fmt.Sprintf("%s:%d", o.TxID.Short(), o.Index) }

// IsCoinbase reports whether the outpoint is the null coinbase marker.
func (o OutPoint) IsCoinbase() bool { return o.TxID.IsZero() && o.Index == CoinbaseIndex }

// Key returns the 36-byte database key of the outpoint, the key of a
// UTXO-set entry.
func (o OutPoint) Key() [36]byte {
	var k [36]byte
	copy(k[:32], o.TxID[:])
	binary.BigEndian.PutUint32(k[32:], o.Index)
	return k
}

// OutPointFromKey parses a key produced by Key.
func OutPointFromKey(k []byte) (OutPoint, error) {
	if len(k) != 36 {
		return OutPoint{}, fmt.Errorf("%w: outpoint key of %d bytes", ErrDecode, len(k))
	}
	var o OutPoint
	copy(o.TxID[:], k[:32])
	o.Index = binary.BigEndian.Uint32(k[32:])
	return o, nil
}

// TxIn is a classic input: an outpoint plus the unlocking script (Us).
type TxIn struct {
	PrevOut      OutPoint
	UnlockScript []byte
}

// TxOut is an output: a value in base units locked by a locking
// script (Ls). Identical in both the classic and EBV systems — the
// paper changes only the input side.
type TxOut struct {
	Value      uint64
	LockScript []byte
}

// EncodedSize returns the serialized size of the output.
func (o *TxOut) EncodedSize() int {
	return uvarintLen(o.Value) + uvarintLen(uint64(len(o.LockScript))) + len(o.LockScript)
}

func (o *TxOut) encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, o.Value)
	return appendVarBytes(dst, o.LockScript)
}

func decodeTxOut(r *reader) TxOut {
	var o TxOut
	o.Value = r.uvarint()
	if o.Value > MaxValue {
		r.fail("output value %d exceeds supply", o.Value)
	}
	o.LockScript = r.varbytes(MaxScriptBytes)
	return o
}

// Tx is a classic Bitcoin-style transaction.
type Tx struct {
	Version  uint32
	Inputs   []TxIn
	Outputs  []TxOut
	LockTime uint32
}

// IsCoinbase reports whether the transaction is a coinbase: exactly
// one input whose prevout is the null marker.
func (t *Tx) IsCoinbase() bool {
	return len(t.Inputs) == 1 && t.Inputs[0].PrevOut.IsCoinbase()
}

// Encode appends the canonical serialization to dst.
func (t *Tx) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.Version))
	dst = binary.AppendUvarint(dst, uint64(len(t.Inputs)))
	for i := range t.Inputs {
		in := &t.Inputs[i]
		dst = append(dst, in.PrevOut.TxID[:]...)
		dst = binary.AppendUvarint(dst, uint64(in.PrevOut.Index))
		dst = appendVarBytes(dst, in.UnlockScript)
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Outputs)))
	for i := range t.Outputs {
		dst = t.Outputs[i].encode(dst)
	}
	return binary.AppendUvarint(dst, uint64(t.LockTime))
}

// EncodedSize returns len(Encode(nil)) without allocating.
func (t *Tx) EncodedSize() int {
	n := uvarintLen(uint64(t.Version)) + uvarintLen(uint64(len(t.Inputs)))
	for i := range t.Inputs {
		in := &t.Inputs[i]
		n += hashx.Size + uvarintLen(uint64(in.PrevOut.Index))
		n += uvarintLen(uint64(len(in.UnlockScript))) + len(in.UnlockScript)
	}
	n += uvarintLen(uint64(len(t.Outputs)))
	for i := range t.Outputs {
		n += t.Outputs[i].EncodedSize()
	}
	return n + uvarintLen(uint64(t.LockTime))
}

// TxID returns the transaction digest: double SHA-256 over the full
// serialization, as in Bitcoin.
func (t *Tx) TxID() hashx.Hash { return hashx.DoubleSum(t.Encode(nil)) }

// DecodeTx parses a classic transaction, requiring the buffer to be
// fully consumed.
func DecodeTx(data []byte) (*Tx, error) {
	r := &reader{data: data}
	t := decodeTxFrom(r)
	if err := r.done(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeTxFrom(r *reader) *Tx {
	t := &Tx{}
	t.Version = r.uint32v()
	nin := r.count("inputs", MaxTxInputs, minTxInBytes)
	if r.err != nil {
		return t
	}
	t.Inputs = make([]TxIn, nin)
	for i := range t.Inputs {
		t.Inputs[i].PrevOut.TxID = r.hash()
		t.Inputs[i].PrevOut.Index = r.uint32v()
		t.Inputs[i].UnlockScript = r.varbytes(MaxScriptBytes)
	}
	nout := r.count("outputs", MaxTxOutputs, minTxOutBytes)
	if r.err != nil {
		return t
	}
	t.Outputs = make([]TxOut, nout)
	for i := range t.Outputs {
		t.Outputs[i] = decodeTxOut(r)
	}
	t.LockTime = r.uint32v()
	return t
}

// SigHash computes the message signed by every input of a classic
// transaction: the serialization with all unlocking scripts removed
// (a single-digest simplification of Bitcoin's per-input SIGHASH_ALL;
// the binding properties relevant to EV/UV/SV are identical).
func (t *Tx) SigHash() hashx.Hash {
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(t.Version))
	dst = binary.AppendUvarint(dst, uint64(len(t.Inputs)))
	for i := range t.Inputs {
		in := &t.Inputs[i]
		dst = append(dst, in.PrevOut.TxID[:]...)
		dst = binary.AppendUvarint(dst, uint64(in.PrevOut.Index))
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Outputs)))
	for i := range t.Outputs {
		dst = t.Outputs[i].encode(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(t.LockTime))
	return hashx.DoubleSum(dst)
}

// OutputSum returns the total value of the outputs. The bool is false
// on overflow.
func (t *Tx) OutputSum() (uint64, bool) {
	var sum uint64
	for i := range t.Outputs {
		v := t.Outputs[i].Value
		if sum+v < sum || sum+v > MaxValue {
			return 0, false
		}
		sum += v
	}
	return sum, true
}
