package txmodel

import (
	"bytes"
	"errors"
	"testing"
)

// Fuzz targets: every decoder must be total — no panics, no accepting
// non-canonical bytes. Round-trip property: decode(encode(x)) == x and
// re-encoding reproduces the input bytes exactly.

func FuzzDecodeTx(f *testing.F) {
	f.Add([]byte{})
	f.Add(sampleClassic().Encode(nil))
	cb := &Tx{Inputs: []TxIn{{PrevOut: OutPoint{Index: CoinbaseIndex}}}, Outputs: []TxOut{{Value: 50}}}
	f.Add(cb.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTx(data)
		if err != nil {
			return
		}
		re := tx.Encode(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding: %x -> %x", data, re)
		}
		if tx.EncodedSize() != len(data) {
			t.Fatalf("EncodedSize %d != %d", tx.EncodedSize(), len(data))
		}
	})
}

func FuzzDecodeTidyTx(f *testing.F) {
	tt := sampleTidy()
	f.Add(tt.Encode(nil))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTidyTx(data)
		if err != nil {
			return
		}
		re := tx.Encode(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding")
		}
	})
}

func FuzzDecodeEBVTx(f *testing.F) {
	tx := &EBVTx{Tidy: sampleTidy(), Bodies: []InputBody{sampleBody()}}
	tx.SealInputHashes()
	f.Add(tx.Encode(nil))
	f.Add([]byte{1, 0, 0})
	arena := &Arena{}
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeEBVTx(data)

		// The borrowed-bytes decoder must be observationally identical
		// to the copying one on every input: same verdict, same error
		// text, same re-encoding. The arena is reused across inputs so
		// the fuzzer also exercises slab recycling.
		arena.Reset()
		var zc EBVTx
		zerr := DecodeEBVTxInto(&zc, data, arena)
		if (err == nil) != (zerr == nil) {
			t.Fatalf("decode verdicts disagree: copy=%v zero-copy=%v", err, zerr)
		}
		if err != nil {
			if err.Error() != zerr.Error() {
				t.Fatalf("decode errors disagree: copy=%q zero-copy=%q", err, zerr)
			}
			return
		}
		re := decoded.Encode(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding")
		}
		if zre := zc.Encode(nil); !bytes.Equal(zre, data) {
			t.Fatalf("zero-copy re-encode differs from input: %x -> %x", data, zre)
		}
		// Both decodes hash their actual bytes, memoized or not.
		checkDigests(t, "copying decode", decoded)
		checkDigests(t, "zero-copy decode", &zc)
	})
}

// FuzzStakePosSplice pins SpliceStakePos to the slow path it replaces:
// on any input that decodes with StakePos 0 (the pool form), splicing
// in a stake position equals decode → set StakePos → Encode, byte for
// byte; every other input is rejected.
func FuzzStakePosSplice(f *testing.F) {
	tx := &EBVTx{Tidy: sampleTidy(), Bodies: []InputBody{sampleBody(), sampleBody()}}
	tx.Bodies[1].RelIndex = 0
	tx.Tidy.StakePos = 0
	tx.SealInputHashes()
	pool := tx.Encode(nil)
	f.Add(pool, uint32(0))
	f.Add(pool, uint32(1))
	f.Add(pool, uint32(300))
	f.Add(pool, uint32(1<<32-1))
	tx.Tidy.StakePos = 19
	f.Add(tx.Encode(nil), uint32(5)) // decodes, but not the pool form
	f.Add(append(pool, 0), uint32(5))
	f.Add([]byte{}, uint32(5))
	f.Fuzz(func(t *testing.T, data []byte, pos uint32) {
		got, err := SpliceStakePos(data, pos)
		decoded, derr := DecodeEBVTx(data)
		if derr != nil || decoded.Tidy.StakePos != 0 {
			if err == nil {
				t.Fatalf("spliced an input that is not the pool form (decode error %v)", derr)
			}
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("rejection %v does not wrap ErrDecode", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected a pool-form input: %v", err)
		}
		decoded.Tidy.StakePos = pos
		decoded.Tidy.Invalidate()
		if want := decoded.Encode(nil); !bytes.Equal(got, want) {
			t.Fatalf("splice at %d: %x, re-encoding gives %x", pos, got, want)
		}
		if len(got) > 0 && len(data) > 0 && &got[0] == &data[0] {
			t.Fatal("splice aliases its input")
		}
	})
}
