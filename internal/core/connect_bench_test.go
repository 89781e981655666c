package core

import (
	"runtime"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/script"
	"ebv/internal/statusdb"
)

// memHeaders is an in-memory HeaderSource so the ConnectBlock
// benchmarks measure validation, not chain-store appends.
type memHeaders struct {
	hdrs []blockmodel.Header
}

func (m *memHeaders) Header(h uint64) (blockmodel.Header, bool) {
	if h < uint64(len(m.hdrs)) {
		return m.hdrs[h], true
	}
	return blockmodel.Header{}, false
}

func (m *memHeaders) TipHeight() (uint64, bool) {
	if len(m.hdrs) == 0 {
		return 0, false
	}
	return uint64(len(m.hdrs)) - 1, true
}

// benchConnectBlock replays the fixture chain into a fresh validator
// per iteration. The cross-block pipelined counterpart lives in
// internal/pipeline (BenchmarkIBDPipelined) — it needs the pipeline
// driver around the same validator.
func benchConnectBlock(b *testing.B, workers int) {
	f := newFixture(b, 120)
	var inputs int64
	for _, blk := range f.ebv {
		inputs += int64(blk.TotalInputs())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mh := &memHeaders{hdrs: make([]blockmodel.Header, 0, len(f.ebv))}
		status := statusdb.New()
		var opts []EBVOption
		if workers > 1 {
			opts = append(opts, WithParallelValidation(workers))
		}
		v := NewEBVValidator(status, script.NewEngine(f.gen.Scheme()), mh, opts...)
		for _, blk := range f.ebv {
			if _, err := v.ConnectBlock(blk); err != nil {
				b.Fatalf("connect %d: %v", blk.Header.Height, err)
			}
			mh.hdrs = append(mh.hdrs, blk.Header)
		}
	}
	b.ReportMetric(float64(inputs)*float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
}

func BenchmarkConnectBlockSequential(b *testing.B) { benchConnectBlock(b, 1) }

func BenchmarkConnectBlockParallel(b *testing.B) { benchConnectBlock(b, runtime.NumCPU()) }
