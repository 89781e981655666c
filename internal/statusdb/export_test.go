package statusdb

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"ebv/internal/bitvec"
	"ebv/internal/hashx"
)

// appendDigest suffixes data with its own SHA-256, the snapshot file
// trailer format.
func appendDigest(data []byte) []byte {
	digest := hashx.Sum(data)
	return append(append([]byte{}, data...), digest[:]...)
}

// buildSet connects a few blocks with a spend pattern that leaves a
// mix of live, partially spent, and fully spent vectors.
func buildSet(t testing.TB) *DB {
	t.Helper()
	d := New(true)
	if err := d.Connect(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(1, 3, []Spend{{Height: 0, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	// Spend all of block 1: its vector is deleted.
	if err := d.Connect(2, 5, []Spend{{Height: 1, Pos: 0}, {Height: 1, Pos: 1}, {Height: 1, Pos: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(3, 2, []Spend{{Height: 2, Pos: 4}}); err != nil {
		t.Fatal(err)
	}
	return d
}

// saveBytes renders the canonical Save stream for equality checks.
func saveBytes(t testing.TB, d *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExportPackUnpackImportRoundTrip(t *testing.T) {
	d := buildSet(t)
	tip, ok, vecs := d.ExportVectors()
	if !ok || tip != 3 {
		t.Fatalf("export: tip %d ok %v", tip, ok)
	}
	if len(vecs) != d.VectorCount() {
		t.Fatalf("export returned %d vectors, set has %d", len(vecs), d.VectorCount())
	}

	// Pack in two ranges split mid-set, unpack, and import into a
	// fresh DB: the result must be byte-identical state.
	var all []HeightVector
	for _, r := range [][2]uint64{{0, 2}, {2, tip + 1}} {
		payload := PackRange(nil, vecs, r[0], r[1])
		got, err := UnpackRange(payload, r[0], r[1])
		if err != nil {
			t.Fatalf("unpack [%d,%d): %v", r[0], r[1], err)
		}
		all = append(all, got...)
	}
	d2 := New(true)
	if err := d2.ImportVectors(tip, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, d), saveBytes(t, d2)) {
		t.Fatal("imported set differs from source")
	}
	if d2.UnspentCount() != d.UnspentCount() || d2.MemUsage() != d.MemUsage() {
		t.Fatalf("accounting differs: ones %d/%d mem %d/%d",
			d2.UnspentCount(), d.UnspentCount(), d2.MemUsage(), d.MemUsage())
	}
	// The imported set must keep working as a live DB.
	if err := d2.Connect(4, 2, []Spend{{Height: 0, Pos: 0}}); err != nil {
		t.Fatalf("connect after import: %v", err)
	}
}

func TestUnpackRangeRejectsMalformed(t *testing.T) {
	d := buildSet(t)
	tip, _, vecs := d.ExportVectors()
	payload := PackRange(nil, vecs, 0, tip+1)

	cases := []struct {
		name string
		data []byte
		from uint64
		to   uint64
	}{
		{"truncated", payload[:len(payload)-1], 0, tip + 1},
		{"trailing junk", append(append([]byte{}, payload...), 0xFF), 0, tip + 1},
		{"wrong range", payload, 0, tip}, // one height short → trailing bytes
		{"empty for non-empty range", nil, 0, 1},
	}
	for _, tc := range cases {
		if _, err := UnpackRange(tc.data, tc.from, tc.to); err == nil {
			t.Errorf("%s: unpack succeeded", tc.name)
		}
	}

	// A non-canonical vector encoding inside the payload must fail.
	bad := PackRange(nil, []HeightVector{{Height: 0, Enc: []byte{0xEE, 0xEE}}}, 0, 1)
	if _, err := UnpackRange(bad, 0, 1); err == nil {
		t.Error("junk vector encoding must be rejected")
	}

	// A canonical vector with no 1-bit is never stored, so no chunk
	// may carry one.
	zero := PackRange(nil, []HeightVector{{Height: 0, Enc: bitvec.New(8).EncodeDense()}}, 0, 1)
	if _, err := UnpackRange(zero, 0, 1); err == nil {
		t.Error("all-zero vector must be rejected")
	}
}

func TestImportVectorsRejectsBad(t *testing.T) {
	d := New(true)
	if err := d.ImportVectors(1, []HeightVector{{Height: 2, Enc: nil}}); err == nil {
		t.Error("height beyond tip must be rejected")
	}
	enc := buildSet(t)
	_, _, vecs := enc.ExportVectors()
	if err := d.ImportVectors(3, append(vecs[:1:1], vecs[0])); err == nil {
		t.Error("duplicate height must be rejected")
	}
	// Failed imports must leave the set untouched.
	if d.VectorCount() != 0 {
		t.Error("failed import mutated the set")
	}
	if _, ok := d.Tip(); ok {
		t.Error("failed import set a tip")
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	d := buildSet(t)
	path := filepath.Join(t.TempDir(), "status.snapshot")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2 := New(true)
	if err := d2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, d), saveBytes(t, d2)) {
		t.Fatal("loaded set differs")
	}
	// Overwriting an existing snapshot must also work (rename onto it).
	if err := d2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

func TestLoadFileMissing(t *testing.T) {
	d := New(true)
	err := d.LoadFile(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}
	if errors.Is(err, ErrCorruptSnapshot) {
		t.Fatal("missing snapshot must not read as corrupt")
	}
}

func TestLoadFileDetectsCorruption(t *testing.T) {
	d := buildSet(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "status.snapshot")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, data []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := New(true)
		if err := got.LoadFile(p); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}

	flipped := append([]byte{}, orig...)
	flipped[2] ^= 1
	corrupt("bitflip", flipped)
	corrupt("truncated", orig[:len(orig)-5])
	corrupt("torn", orig[:3])
	corrupt("empty", nil)
	// A digest recomputed over a structurally broken body: the digest
	// passes but the decode must still fail with ErrCorruptSnapshot.
	// (Load's own validation is the second line of defence.)
	junkBody := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	junk := appendDigest(junkBody)
	corrupt("junk-body", junk)
}
