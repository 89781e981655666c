package statesync

import (
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/pipeline"
)

// CatchUpResult summarizes a post-bootstrap catch-up replay.
type CatchUpResult struct {
	// StartHeight is the first height replayed; EndHeight the last
	// (inclusive). Blocks is zero when the node was already at the
	// source tip, and Start/EndHeight are then meaningless.
	StartHeight uint64
	EndHeight   uint64
	Blocks      int
	Breakdown   core.Breakdown
	Wall        time.Duration
}

// CatchUp replays the blocks a freshly bootstrapped node is still
// missing — everything between its installed snapshot tip and the
// source tip — through the cross-block validation pipeline. A fast
// sync lands the node at the snapshot's base height, typically a few
// hundred blocks behind the network; this closes the gap with the same
// overlap (EV+SV of future blocks alongside UV+commit of past ones)
// that pipelined IBD uses, so the node is serving-current the moment
// it comes up. depth <= 0 runs the pipeline at depth 1, never block by
// block; workers is the per-block fan-out.
func CatchUp(src pipeline.Source, chain pipeline.Chain, v *core.EBVValidator, depth, workers int, logf func(string, ...any)) (*CatchUpResult, error) {
	res := &CatchUpResult{}
	start, ok := chain.TipHeight()
	if ok {
		start++
	}
	tip, srcOK := src.TipHeight()
	if !srcOK || start > tip {
		return res, nil
	}
	res.StartHeight = start
	w := time.Now()
	err := pipeline.Run(src, chain, v, start, pipeline.Config{
		Depth:   depth,
		Workers: workers,
		Progress: func(b *blockmodel.EBVBlock, bd *core.Breakdown) {
			res.EndHeight = b.Header.Height
			res.Blocks++
			res.Breakdown.Add(bd)
		},
	})
	res.Wall = time.Since(w)
	if err != nil {
		return res, err
	}
	if logf != nil {
		logf("catch-up: %d blocks [%d..%d] in %s", res.Blocks, res.StartHeight, res.EndHeight, res.Wall)
	}
	return res, nil
}
