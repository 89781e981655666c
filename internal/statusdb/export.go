package statusdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"ebv/internal/bitvec"
	"ebv/internal/hashx"
	"ebv/internal/varint"
)

// ErrCorruptSnapshot reports a snapshot file whose trailing digest (or
// structure) does not check out — a torn write, truncation, or disk
// corruption. The caller should treat the snapshot as absent and
// rebuild state from the chain.
var ErrCorruptSnapshot = errors.New("statusdb: corrupt snapshot")

// HeightVector is one height's encoded bit vector, the unit of the
// statesync range export/import below.
type HeightVector struct {
	Height uint64
	Enc    []byte
}

// snapshotShallow captures a consistent view of the set: the tip plus
// every live vector's height and encoding. The consistency point is a
// map walk under the read lock — O(live vectors) pointer copies, no
// byte copying — so a concurrent commit waits at most for the walk
// before its install, never for the serialization of the whole set.
// The returned Enc slices are shared with the store: they stay stable
// after the lock is released because stored encodings are immutable
// (every mutation installs a freshly allocated encoding), but callers
// that hand them out must deep-copy first. The result is unsorted.
func (d *DB) snapshotShallow() (tip uint64, hasTip bool, vecs []HeightVector) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	vecs = make([]HeightVector, 0, len(d.vectors))
	for h, enc := range d.vectors {
		vecs = append(vecs, HeightVector{Height: h, Enc: enc})
	}
	return d.tip, d.hasTip, vecs
}

// ExportVectors returns a consistent copy of the set: the tip and
// every live vector's encoding in ascending height order. The
// consistency point is snapshotShallow's brief pointer-copy walk; no
// concurrent commit can interleave inside it, so the result is
// exactly the state at some instant — the property a snapshot server
// needs before it signs chunk digests into a manifest — while the
// sort and the deep copy of the encodings run outside the lock, so
// serving snapshots does not stall validation.
func (d *DB) ExportVectors() (tip uint64, ok bool, vecs []HeightVector) {
	tip, ok, vecs = d.snapshotShallow()
	if !ok {
		return 0, false, nil
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].Height < vecs[j].Height })
	for i := range vecs {
		vecs[i].Enc = append([]byte(nil), vecs[i].Enc...)
	}
	return tip, true, vecs
}

// PackRange appends the wire encoding of heights [from, to) to dst:
// for each height in order, a varint encoding length followed by the
// encoded vector, with length 0 marking an absent (fully spent)
// vector. vecs must be ascending by height, as ExportVectors returns.
func PackRange(dst []byte, vecs []HeightVector, from, to uint64) []byte {
	i := 0
	for i < len(vecs) && vecs[i].Height < from {
		i++
	}
	for h := from; h < to; h++ {
		if i < len(vecs) && vecs[i].Height == h {
			dst = binary.AppendUvarint(dst, uint64(len(vecs[i].Enc)))
			dst = append(dst, vecs[i].Enc...)
			i++
		} else {
			dst = binary.AppendUvarint(dst, 0)
		}
	}
	return dst
}

// UnpackRange parses a PackRange payload covering heights [from, to),
// returning the live vectors it carries. Every encoding is validated
// canonically; trailing bytes are an error.
func UnpackRange(data []byte, from, to uint64) ([]HeightVector, error) {
	var vecs []HeightVector
	for h := from; h < to; h++ {
		l, n := varint.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("statusdb: range height %d: bad length varint", h)
		}
		if l > 3*bitvec.MaxLen {
			return nil, fmt.Errorf("statusdb: range height %d: implausible size %d", h, l)
		}
		data = data[n:]
		if l == 0 {
			continue
		}
		if uint64(len(data)) < l {
			return nil, fmt.Errorf("statusdb: range height %d: truncated vector", h)
		}
		enc := append([]byte(nil), data[:l]...)
		data = data[l:]
		if _, err := bitvec.Decode(enc); err != nil {
			return nil, fmt.Errorf("statusdb: range height %d: %v", h, err)
		}
		vecs = append(vecs, HeightVector{Height: h, Enc: enc})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("statusdb: range [%d,%d): %d trailing bytes", from, to, len(data))
	}
	return vecs, nil
}

// ImportVectors atomically replaces the set's contents with the given
// per-height encodings at tip — the final step of a fast sync. Every
// vector is decoded and validated before anything is touched; on
// error the set is unchanged.
func (d *DB) ImportVectors(tip uint64, vecs []HeightVector) error {
	b := newSetBuilder()
	for _, hv := range vecs {
		if hv.Height > tip {
			return fmt.Errorf("statusdb: import height %d beyond tip %d", hv.Height, tip)
		}
		// Copy the caller's buffer: stored encodings must be immutable
		// so snapshots can shallow-copy them safely.
		if err := b.add(hv.Height, append([]byte(nil), hv.Enc...)); err != nil {
			return fmt.Errorf("statusdb: import %v", err)
		}
	}
	d.replace(b, tip, true)
	return nil
}

// SaveFile writes the snapshot to path atomically: the Save stream
// plus a trailing SHA-256 digest goes to a temp file in the same
// directory, which is fsynced and renamed into place. A crash at any
// point leaves either the old snapshot or a temp file that is never
// read — never a torn snapshot at path.
func (d *DB) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return err
	}
	digest := hashx.Sum(buf.Bytes())
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(digest[:]); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile replaces the set's contents with the snapshot at path,
// verifying the trailing digest first. A missing file is reported as
// fs.ErrNotExist; any mismatch or decode failure is wrapped in
// ErrCorruptSnapshot so callers can distinguish "no snapshot" from
// "snapshot damaged".
func (d *DB) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if len(data) < hashx.Size {
		return fmt.Errorf("%w: %d bytes is shorter than the digest", ErrCorruptSnapshot, len(data))
	}
	body, tail := data[:len(data)-hashx.Size], data[len(data)-hashx.Size:]
	if hashx.Sum(body) != hashx.Hash(tail) {
		return fmt.Errorf("%w: digest mismatch", ErrCorruptSnapshot)
	}
	if err := d.Load(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return nil
}
