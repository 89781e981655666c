package statusdb

import (
	"fmt"

	"ebv/internal/bitvec"
)

// CheckInvariants recomputes the accounting from the live vectors and
// verifies the store's structural invariants:
//
//   - every vector decodes, is non-empty, and has at least one 1-bit
//     (all-zero vectors are deleted at commit; zero-output blocks
//     never store one);
//   - no height exceeds the tip (an empty set holds no vectors at
//     all);
//   - the memBytes/dense/ones counters equal the sums recomputed from
//     the vectors, and the aggregate getters report them.
//
// It takes the commit mutex, so it sees a quiescent state even while
// readers run; use it after every operation in soak tests and as a
// post-load sanity gate. The first violation found is returned.
func (d *DB) CheckInvariants() error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	// Holding commitMu keeps every writer out, so the fields mu
	// guards can be read directly.
	var mem, dense, ones int64
	for h, enc := range d.vectors {
		if !d.hasTip {
			return fmt.Errorf("statusdb: invariant: vector at height %d in an empty set", h)
		}
		if h > d.tip {
			return fmt.Errorf("statusdb: invariant: height %d beyond tip %d", h, d.tip)
		}
		v, err := bitvec.Decode(enc)
		if err != nil {
			return fmt.Errorf("statusdb: invariant: corrupt vector at height %d: %v", h, err)
		}
		if v.Len() == 0 {
			return fmt.Errorf("statusdb: invariant: zero-length vector stored at height %d", h)
		}
		if v.AllZero() {
			return fmt.Errorf("statusdb: invariant: all-zero vector stored at height %d", h)
		}
		mem += int64(len(enc)) + vectorOverhead
		dense += int64(v.DenseSize()) + vectorOverhead
		ones += int64(v.Ones())
	}
	switch {
	case mem != d.memBytes:
		return fmt.Errorf("statusdb: invariant: memBytes %d, recomputed %d", d.memBytes, mem)
	case dense != d.dense:
		return fmt.Errorf("statusdb: invariant: dense %d, recomputed %d", d.dense, dense)
	case ones != d.ones:
		return fmt.Errorf("statusdb: invariant: ones %d, recomputed %d", d.ones, ones)
	}
	if got := d.MemUsage(); got != mem {
		return fmt.Errorf("statusdb: invariant: MemUsage %d, recomputed %d", got, mem)
	}
	if got := d.DenseUsage(); got != dense {
		return fmt.Errorf("statusdb: invariant: DenseUsage %d, recomputed %d", got, dense)
	}
	if got := d.UnspentCount(); got != ones {
		return fmt.Errorf("statusdb: invariant: UnspentCount %d, recomputed %d", got, ones)
	}
	if got := d.VectorCount(); got != len(d.vectors) {
		return fmt.Errorf("statusdb: invariant: VectorCount %d, recomputed %d", got, len(d.vectors))
	}
	return nil
}
