package relay

import (
	"bytes"
	"reflect"
	"testing"

	"ebv/internal/blockmodel"
)

// Fuzz targets for the three relay payload codecs. Every decoder must
// be total — no panics on any input — and canonical: an accepted input
// re-encodes to exactly its own bytes, and those bytes decode again to
// an equal value. The seeds are real encodings of a multi-transaction
// block of a generated chain.

// seedBlock returns the compact announcement of a multi-transaction
// block of a generated chain, and that block's non-coinbase
// transactions in block form.
func seedBlock(f *testing.F) (*Compact, [][]byte) {
	f.Helper()
	chain := buildChain(f, 250)
	tip, _ := chain.TipHeight()
	for h := tip; h > 0; h-- {
		raw, err := chain.BlockBytes(h)
		if err != nil {
			f.Fatal(err)
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			f.Fatal(err)
		}
		info := NewBlockInfo(raw, blk)
		if info.TxCount() < 3 {
			continue
		}
		var txs [][]byte
		for i := 1; i < info.TxCount(); i++ {
			tx, err := info.TxBytes(i)
			if err != nil {
				f.Fatal(err)
			}
			txs = append(txs, tx)
		}
		return info.Compact(0x5EED), txs
	}
	f.Fatal("no block with >= 3 txs in the test chain")
	return nil, nil
}

func FuzzDecodeCompact(f *testing.F) {
	c, _ := seedBlock(f)
	good := c.Encode(nil)
	f.Add(good)
	f.Add(good[:len(good)-8])
	f.Add((&Compact{Header: c.Header, StakePos: []uint32{0}, Prefill: c.Prefill[:1]}).Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeCompact(data)
		if err != nil {
			return
		}
		re := got.Encode(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical compact block: %x -> %x", data, re)
		}
		again, err := DecodeCompact(re)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the compact block: %+v -> %+v", got, again)
		}
	})
}

func FuzzDecodeTxns(f *testing.F) {
	// Two transactions, not the whole block: the fuzzer's minimizer is
	// quadratic in the input, and a block-sized seed stalls it.
	_, txs := seedBlock(f)
	f.Add(EncodeTxns(nil, txs[:2]))
	f.Add(EncodeTxns(nil, txs[:1]))
	f.Add(EncodeTxns(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTxns(data)
		if err != nil {
			return
		}
		re := EncodeTxns(nil, got)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical blocktxn body: %x -> %x", data, re)
		}
		again, err := DecodeTxns(re)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the blocktxn body: %q -> %q", got, again)
		}
	})
}

func FuzzDecodeIndexes(f *testing.F) {
	c, _ := seedBlock(f)
	var missing []int
	for i := 1; i < len(c.StakePos); i += 2 {
		missing = append(missing, i)
	}
	f.Add(EncodeIndexes(nil, missing))
	f.Add(EncodeIndexes(nil, []int{0, 127, 128, maxBlockTxs}))
	f.Add(EncodeIndexes(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeIndexes(data)
		if err != nil {
			return
		}
		re := EncodeIndexes(nil, got)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical getblocktxn body: %x -> %x", data, re)
		}
		again, err := DecodeIndexes(re)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the indexes: %v -> %v", got, again)
		}
	})
}
