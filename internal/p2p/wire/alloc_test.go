//go:build !race

package wire

import (
	"bufio"
	"io"
	"testing"

	"ebv/internal/hashx"
)

// TestWriteFrameZeroAllocs: a frame that fits the writer's free buffer
// space is encoded in place, with no allocation. (Race instrumentation
// skews allocation counts, hence the build tag.)
func TestWriteFrameZeroAllocs(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	h := hashx.Sum([]byte("ack"))
	for _, m := range []*Message{
		{Kind: TxAck, Height: 1 << 20, Code: 0, Hash: h},
		{Kind: Inv, Height: 3000, Hash: h},
		{Kind: CmpctBlock, Height: 3000, Payload: make([]byte, 900)},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := WriteFrame(w, m); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per frame, want 0", KindName(m.Kind), allocs)
		}
	}
}
