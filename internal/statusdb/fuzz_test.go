package statusdb

import (
	"bytes"
	"math"
	"testing"
)

// FuzzUnpackRangeImport feeds peer-supplied state-sync chunk bytes
// through UnpackRange and ImportVectors into a live set. An accepted
// payload must round-trip byte-equal through PackRange; a rejected
// import must leave the set's Save stream unchanged; an accepted one
// must pass CheckInvariants and export exactly what was imported.
func FuzzUnpackRangeImport(f *testing.F) {
	src := buildSet(f)
	tip, _, vecs := src.ExportVectors()
	f.Add(PackRange(nil, vecs, 0, tip+1), uint64(0), uint16(tip+1), uint8(0))
	f.Add(PackRange(nil, vecs, 2, tip+1), uint64(2), uint16(tip-1), uint8(0))
	f.Add(PackRange(nil, vecs, 0, tip+1), uint64(0), uint16(tip+1), uint8(2))
	f.Add([]byte{0}, uint64(7), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, from uint64, span uint16, tipBack uint8) {
		// Chunks cover at most a few hundred heights; bound the span so
		// an empty payload cannot ask for 65 535 iterations.
		if span == 0 || span > 512 || from > math.MaxUint64-uint64(span) {
			return
		}
		to := from + uint64(span)
		got, err := UnpackRange(data, from, to)
		if err != nil {
			return
		}
		if packed := PackRange(nil, got, from, to); !bytes.Equal(packed, data) {
			t.Fatalf("accepted payload %x repacks as %x", data, packed)
		}
		if uint64(tipBack) > to-1 {
			return
		}
		d := buildSet(t)
		before := saveBytes(t, d)
		importTip := to - 1 - uint64(tipBack)
		if err := d.ImportVectors(importTip, got); err != nil {
			if !bytes.Equal(saveBytes(t, d), before) {
				t.Fatalf("failed import (%v) changed the set", err)
			}
			return
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("accepted import breaks invariants: %v", err)
		}
		gotTip, _, exported := d.ExportVectors()
		if gotTip != importTip {
			t.Fatalf("import tip %d, want %d", gotTip, importTip)
		}
		if repacked := PackRange(nil, exported, from, to); !bytes.Equal(repacked, data) {
			t.Fatalf("imported set exports %x, payload was %x", repacked, data)
		}
	})
}

// FuzzLoad feeds snapshot-file bytes to Load on a live set. A rejected
// snapshot must leave the set's Save stream unchanged; an accepted one
// must pass CheckInvariants.
func FuzzLoad(f *testing.F) {
	full := saveBytes(f, buildSet(f))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(saveBytes(f, New()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := buildSet(t)
		before := saveBytes(t, d)
		if err := d.Load(bytes.NewReader(data)); err != nil {
			if !bytes.Equal(saveBytes(t, d), before) {
				t.Fatalf("failed load (%v) changed the set", err)
			}
			return
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot breaks invariants: %v", err)
		}
	})
}
