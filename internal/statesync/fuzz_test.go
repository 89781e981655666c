package statesync_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/statesync"
	"ebv/internal/statusdb"
)

// FuzzDecodeManifest feeds peer-supplied manifest bytes to
// DecodeManifest. The decoder must be total — no panic on any input —
// and canonical: an accepted manifest re-encodes to exactly its own
// bytes and carries one digest per span of headers. The seeds are a
// BuildManifest encoding over a linked header chain (Bits 0, so every
// header meets its target), its truncation, and a tiny frame declaring
// 2^64-1 headers.
func FuzzDecodeManifest(f *testing.F) {
	const heights = 5
	headers := make([]blockmodel.Header, heights)
	prev := hashx.ZeroHash
	db := statusdb.New()
	for h := uint64(0); h < heights; h++ {
		headers[h] = blockmodel.Header{Version: 1, Height: h, PrevBlock: prev, TimeStamp: 1000 + h}
		prev = headers[h].Hash()
		var spends []statusdb.Spend
		if h > 0 {
			spends = []statusdb.Spend{{Height: h - 1, Pos: 0}}
		}
		if err := db.Connect(h, 3, spends); err != nil {
			f.Fatal(err)
		}
	}
	_, _, vecs := db.ExportVectors()
	m, _ := statesync.BuildManifest(headers, vecs, 2)
	enc := m.Encode()
	if _, err := statesync.DecodeManifest(enc); err != nil {
		f.Fatalf("seed manifest rejected: %v", err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	huge := binary.AppendUvarint([]byte{enc[0]}, 2)
	f.Add(binary.AppendUvarint(huge, math.MaxUint64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := statesync.DecodeManifest(data)
		if err != nil {
			return
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted manifest %x re-encodes as %x", data, got)
		}
		n := uint64(len(m.Headers))
		if want := (n + m.Span - 1) / m.Span; m.Chunks() != want {
			t.Fatalf("%d headers at span %d: %d chunks, want %d", n, m.Span, m.Chunks(), want)
		}
	})
}
