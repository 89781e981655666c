package txmodel

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// maxRefusalAlloc bounds what refusing a short input may allocate.
const maxRefusalAlloc = 64 << 10

// allocDuring returns the bytes decode allocates and its error.
func allocDuring(decode func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestCountBoundedByInput: an encoding that claims the largest element
// count and carries no elements is refused before the decoder
// allocates room for the count, in the copying and the borrowed
// decode alike — a few bytes from a submitter must not buy megabytes
// of heap or grow a pooled arena.
func TestCountBoundedByInput(t *testing.T) {
	claim := func(prefix ...byte) []byte { return binary.AppendUvarint(prefix, MaxTxInputs) }
	minTidy := []byte{1, 0, 0, 0, 0} // version, no hashes, no outputs, locktime, stake position
	ebv := func(tidy []byte, tail ...byte) []byte {
		return append(append(binary.AppendUvarint(nil, uint64(len(tidy))), tidy...), tail...)
	}
	arena := &Arena{}
	cases := map[string]func() error{
		"classic inputs":  func() error { _, err := DecodeTx(claim(1)); return err },
		"classic outputs": func() error { _, err := DecodeTx(claim(1, 0)); return err },
		"tidy hashes":     func() error { _, err := DecodeTidyTx(claim(1)); return err },
		"tidy outputs":    func() error { _, err := DecodeTidyTx(claim(1, 0)); return err },
		"ebv bodies":      func() error { _, err := DecodeEBVTx(ebv(minTidy, claim()...)); return err },
		"ebv bodies borrowed": func() error {
			var tx EBVTx
			return DecodeEBVTxInto(&tx, ebv(minTidy, claim()...), arena)
		},
		"ebv tidy hashes borrowed": func() error {
			var tx EBVTx
			return DecodeEBVTxInto(&tx, ebv(claim(1), 0), arena)
		},
	}
	for name, decode := range cases {
		n, err := allocDuring(decode)
		if err == nil {
			t.Errorf("%s: a count with no elements decoded", name)
		}
		if n > maxRefusalAlloc {
			t.Errorf("%s: refusing a short input that claims %d elements allocated %d B", name, MaxTxInputs, n)
		}
	}
}
