// Package txmodel defines the transaction structures of both systems
// under comparison and their canonical binary serialization:
//
//   - Classic (Bitcoin-style) transactions, whose inputs reference a
//     previous output by outpoint (txid, index) and are checked
//     against the UTXO set (paper §II).
//
//   - EBV transactions (paper §IV-C): a "tidy" transaction whose
//     Merkle-committed form carries only input *hashes* plus outputs,
//     and, transported alongside, one InputBody per input holding the
//     proof fields MBr, Us, ELs, height and relative position. Tidy
//     hashing is what defeats the transaction-inflation problem: an
//     ELs embeds the previous transaction in tidy form only, so proofs
//     do not nest.
//
// All integers are unsigned varints; hashes are raw 32 bytes. The
// encoding is written to be canonical: decoding accepts exactly what
// encoding produces, and every decoder enforces structural limits so
// corrupt or adversarial bytes fail loudly.
package txmodel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ebv/internal/hashx"
	"ebv/internal/varint"
)

// Structural limits enforced during decoding.
const (
	MaxScriptBytes   = 10000
	MaxTxInputs      = 1 << 16
	MaxTxOutputs     = 1 << 16
	MaxValue         = 21_000_000 * 100_000_000 // total coin supply in base units
	CoinbaseMaturity = 100                      // blocks before a coinbase output may be spent
)

// Smallest encodings of the repeated elements, so a decoder refuses a
// count the bytes left cannot hold before it allocates room for it.
const (
	// A classic transaction: version, input count, output count and
	// locktime varints; an EBV transaction: a tidy form of the same
	// four plus the stake position, behind its length prefix, and a
	// body count.
	MinTxBytes    = 4
	MinEBVTxBytes = 1 + 5 + 1

	minTxInBytes  = hashx.Size + 2 // previous txid, index varint, script length
	minTxOutBytes = 2              // value varint, script length
	// A body behind its length prefix: branch index and sibling count,
	// script length, the previous transaction's tidy form behind its
	// length prefix, height and relative index.
	minBodyBytes = 1 + 2 + 1 + (1 + 5) + 1 + 1
)

// ErrDecode wraps all deserialization failures.
var ErrDecode = errors.New("txmodel: decode")

// reader is a cursor over an encoded buffer that records the first
// error and turns subsequent reads into no-ops, so decoders can read a
// whole structure and check the error once.
//
// A non-nil arena switches the reader into borrowed-bytes mode:
// varbytes aliases the input buffer instead of copying, and decoded
// slices come from the arena. The decoded structure is then valid only
// while the input bytes stay alive and unmodified and the arena is not
// Reset (see Arena).
type reader struct {
	data  []byte
	off   int
	err   error
	arena *Arena
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrDecode, fmt.Sprintf(format, args...))
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := varint.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count of at most max elements that take at
// least minSize bytes each, and fails on a count the bytes left cannot
// hold.
func (r *reader) count(what string, max uint64, minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > max {
		r.fail("%d %s exceeds limit", n, what)
		return 0
	}
	if left := len(r.data) - r.off; n > uint64(left/minSize) {
		r.fail("%d %s do not fit in %d bytes", n, what, left)
		return 0
	}
	return int(n)
}

// uint32v reads a varint and range-checks it into uint32.
func (r *reader) uint32v() uint32 {
	v := r.uvarint()
	if v > 1<<32-1 {
		r.fail("value %d exceeds uint32", v)
		return 0
	}
	return uint32(v)
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("truncated: need %d bytes at offset %d", n, r.off)
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) hash() hashx.Hash {
	b := r.bytes(hashx.Size)
	if r.err != nil {
		return hashx.ZeroHash
	}
	return hashx.FromBytes(b)
}

// varbytes reads a length-prefixed byte string of at most max bytes.
// In copying mode (arena == nil) the result is copied so decoded
// structures do not alias the input; in borrowed mode it is a
// capacity-clamped sub-slice of the input buffer.
func (r *reader) varbytes(max int) []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(max) {
		r.fail("byte string of %d exceeds limit %d", n, max)
		return nil
	}
	b := r.bytes(int(n))
	if r.err != nil {
		return nil
	}
	if r.arena != nil {
		return b[:len(b):len(b)]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// done verifies the buffer was fully consumed.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(r.data)-r.off)
	}
	return nil
}

func appendVarBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func uvarintLen(x uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], x)
}
