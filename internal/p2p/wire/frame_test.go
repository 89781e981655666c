package wire

import (
	"bufio"
	"bytes"
	"testing"

	"ebv/internal/hashx"
)

// mixedFrames is one message of every kind, with the optional fields
// each kind carries set.
func mixedFrames() []*Message {
	h := hashx.Sum([]byte("frame"))
	return []*Message{
		{Kind: Hello, Height: 300, Features: FeatureForkChoice | FeatureCompactRelay | FeatureTxSubmit, TipWork: []byte{1, 2, 3}, Nonce: 77},
		{Kind: Inv, Height: 299, Hash: h},
		{Kind: GetBlocks, Height: 12, Count: MaxBatch},
		{Kind: Block, Height: 12, Payload: bytes.Repeat([]byte{0xb1}, 700)},
		{Kind: GetManifest},
		{Kind: Manifest, Payload: []byte("manifest")},
		{Kind: GetChunk, Height: 3},
		{Kind: Chunk, Height: 3, Payload: []byte("chunk")},
		{Kind: GetHeaders, Hashes: []hashx.Hash{h, hashx.ZeroHash}},
		{Kind: Headers, Payload: bytes.Repeat([]byte{0x48}, 96)},
		{Kind: GetData, Hashes: []hashx.Hash{h}},
		{Kind: Tx, Height: 1 << 40, Payload: []byte("tx bytes")},
		{Kind: TxAck, Height: 1 << 40, Code: 3, Hash: h},
		{Kind: CmpctBlock, Height: 299, Payload: []byte("compact")},
		{Kind: GetBlockTxn, Hash: h, Payload: []byte{1, 2}},
		{Kind: BlockTxn, Hash: h, Payload: []byte("txns")},
		{Kind: Subscribe, Payload: []byte("filter")},
		{Kind: SubUpdate, Height: 299, Hash: h, Count: 2, Code: 1},
		{Kind: GetLightBlock, Hash: h},
		{Kind: LightBlock, Hash: h, Height: 299, Payload: []byte("light block")},
	}
}

func sameMessage(a, b *Message) bool {
	if len(a.Hashes) != len(b.Hashes) {
		return false
	}
	for i := range a.Hashes {
		if a.Hashes[i] != b.Hashes[i] {
			return false
		}
	}
	return a.Kind == b.Kind && a.Height == b.Height && a.Count == b.Count &&
		a.Hash == b.Hash && a.Features == b.Features && a.Code == b.Code &&
		a.Nonce == b.Nonce && bytes.Equal(a.TipWork, b.TipWork) &&
		bytes.Equal(a.Payload, b.Payload)
}

// writeCounter counts the writes reaching the underlying stream.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameCoalesces buffers frames of every kind with WriteFrame,
// flushes once, and reads back the same messages with the same frame
// sizes from a single write to the stream.
func TestWriteFrameCoalesces(t *testing.T) {
	msgs := mixedFrames()
	var out writeCounter
	w := bufio.NewWriterSize(&out, 8<<10)
	sizes := make([]int, len(msgs))
	for i, m := range msgs {
		n, err := WriteFrame(w, m)
		if err != nil {
			t.Fatalf("WriteFrame(%s): %v", KindName(m.Kind), err)
		}
		sizes[i] = n
	}
	if out.writes != 0 {
		t.Fatalf("WriteFrame reached the stream %d times before Flush", out.writes)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.writes != 1 {
		t.Fatalf("one Flush made %d writes, want 1", out.writes)
	}
	r := bufio.NewReader(&out.Buffer)
	for i, want := range msgs {
		got, n, err := ReadCounted(r)
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, KindName(want.Kind), err)
		}
		if !sameMessage(got, want) {
			t.Fatalf("frame %d: read %+v, wrote %+v", i, got, want)
		}
		if n != sizes[i] {
			t.Fatalf("frame %d (%s): read %d bytes, WriteFrame reported %d", i, KindName(want.Kind), n, sizes[i])
		}
	}
	if out.Len() != 0 {
		t.Fatalf("%d bytes left after the last frame", out.Len())
	}
}

// TestWriteCountedIsWriteFrameThenFlush pins WriteCounted's bytes and
// count to WriteFrame followed by Flush, for every kind and for frames
// that do and do not fit the writer's free buffer space.
func TestWriteCountedIsWriteFrameThenFlush(t *testing.T) {
	for _, m := range mixedFrames() {
		for _, bufSize := range []int{16, 4096} {
			var a, b bytes.Buffer
			wa, wb := bufio.NewWriterSize(&a, bufSize), bufio.NewWriterSize(&b, bufSize)
			na, err := WriteCounted(wa, m)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := WriteFrame(wb, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := wb.Flush(); err != nil {
				t.Fatal(err)
			}
			if na != nb || !bytes.Equal(a.Bytes(), b.Bytes()) || na != a.Len() {
				t.Fatalf("%s (buffer %d): WriteCounted %d bytes %x, WriteFrame+Flush %d bytes %x",
					KindName(m.Kind), bufSize, na, a.Bytes(), nb, b.Bytes())
			}
		}
	}
}

// TestWriteFrameRefusesBeforeWriting: a message the codec refuses
// leaves nothing in the writer, so frames buffered around it stay
// intact.
func TestWriteFrameRefusesBeforeWriting(t *testing.T) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	for _, bad := range []*Message{
		{Kind: 99},
		{Kind: GetData},
		{Kind: Hello, Features: FeatureForkChoice, TipWork: make([]byte, MaxTipWork+1)},
	} {
		if _, err := WriteFrame(w, bad); err == nil {
			t.Fatalf("kind %d encoded", bad.Kind)
		}
		if w.Buffered() != 0 {
			t.Fatalf("refused kind %d left %d bytes buffered", bad.Kind, w.Buffered())
		}
	}
}
