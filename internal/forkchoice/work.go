package forkchoice

import (
	"encoding/binary"
	"math/bits"
)

// work is a cumulative proof-of-work count: an unsigned 320-bit
// integer in five little-endian 64-bit limbs. One block's work is
// 2^Bits, and a header that meets its target has at most 256 leading
// zero bits, so a chain's sum fits with 63 bits to spare. A value type
// keeps the active chain's prefix one pointer-free array.
type work [5]uint64

// maxWork is where arithmetic saturates: only a Bits field no hash
// could meet reaches it.
var maxWork = work{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// workOf is the expected work of one block: 2^Bits hash trials for
// Bits leading zero bits (Bits 0, PoW off, counts one unit so fork
// choice degrades to longest-chain).
func workOf(b uint32) work {
	var w work
	if b >= 64*uint32(len(w)) {
		return maxWork
	}
	w[b/64] = 1 << (b % 64)
	return w
}

// add returns w + x, saturating at maxWork.
func (w work) add(x work) work {
	var carry uint64
	for i := range w {
		w[i], carry = bits.Add64(w[i], x[i], carry)
	}
	if carry != 0 {
		return maxWork
	}
	return w
}

// cmp returns -1, 0 or +1 as w is less than, equal to or greater than
// x.
func (w work) cmp(x work) int {
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] != x[i] {
			if w[i] < x[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// bytes returns w as minimal big-endian bytes, empty for zero — the
// form big.Int.Bytes gives and the hello tip-work field carries.
func (w work) bytes() []byte {
	var buf [8 * len(work{})]byte
	for i, limb := range w {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], limb)
	}
	i := 0
	for i < len(buf) && buf[i] == 0 {
		i++
	}
	return append([]byte{}, buf[i:]...)
}
