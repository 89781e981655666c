package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ebv/internal/node"
)

// AblationIBDPipe sweeps the cross-block IBD pipeline: a fresh EBV
// node replays the full bench chain at each configuration and the
// whole run's wall clock is the measurement. Two baselines anchor the
// sweep — sequential replay (workers=1, no pipeline) and the per-block
// parallel pipeline alone (workers=W, no cross-block overlap) — then
// depths {1, 2, 4, 8} run at one and at W workers. Depth 1 isolates
// the overlap of a single preverified block with the commit ahead of
// it; deeper settings only add slack for uneven block sizes. Every
// run's final unspent count is checked against the first before any
// number is reported.
//
// Results are also written as BENCH_ibdpipe.json into
// Options.ArtifactDir.
func (e *Env) AblationIBDPipe(w io.Writer) error {
	wide := e.Opts.Workers
	if wide <= 1 {
		wide = runtime.NumCPU()
		if wide > 4 {
			wide = 4
		}
	}
	type cfg struct {
		label   string
		workers int
		depth   int
	}
	sweep := []cfg{
		{"sequential", 1, 0},
		{"per-block-parallel", wide, 0},
	}
	for _, d := range []int{1, 2, 4, 8} {
		for _, wk := range dedupSorted([]int{1, wide}) {
			sweep = append(sweep, cfg{fmt.Sprintf("pipelined d=%d w=%d", d, wk), wk, d})
		}
	}

	type row struct {
		Label      string  `json:"label"`
		Depth      int     `json:"depth"`
		Workers    int     `json:"workers"`
		WallNS     int64   `json:"wall_ns"`
		Blocks     int     `json:"blocks"`
		Inputs     int     `json:"inputs"`
		BlocksPerS float64 `json:"blocks_per_sec"`
		SpeedupSeq float64 `json:"speedup_vs_sequential"`
		SpeedupPar float64 `json:"speedup_vs_parallel"`
	}
	var rows []row

	logf(w, "ablation-ibdpipe: full-chain IBD, %d blocks, %d CPU(s)", e.Opts.Blocks, runtime.NumCPU())
	var seqWall, parWall time.Duration
	var wantUnspent int64
	t := newTable("config", "depth", "workers", "ibd-wall", "blocks/s", "vs-seq", "vs-par")
	for i, c := range sweep {
		dir, err := e.TempNodeDir()
		if err != nil {
			return err
		}
		ncfg := e.EBVNodeConfig(dir)
		ncfg.ParallelValidation = c.workers
		ncfg.PipelineDepth = c.depth
		n, err := node.NewEBVNode(ncfg)
		if err != nil {
			return err
		}
		res, err := node.RunIBDEBV(e.EBVChain, n, 0, nil)
		if err != nil {
			n.Close()
			return fmt.Errorf("ablation-ibdpipe %s: %w", c.label, err)
		}
		unspent := n.Status.UnspentCount()
		blocks := n.Chain.Count()
		n.Close()
		if i == 0 {
			wantUnspent = unspent
		} else if unspent != wantUnspent {
			return fmt.Errorf("ablation-ibdpipe %s: unspent count %d != sequential %d — pipeline state diverged",
				c.label, unspent, wantUnspent)
		}
		switch c.label {
		case "sequential":
			seqWall = res.Wall
		case "per-block-parallel":
			parWall = res.Wall
		}
		vsSeq := float64(seqWall) / float64(res.Wall)
		vsPar := 0.0
		if parWall > 0 {
			vsPar = float64(parWall) / float64(res.Wall)
		}
		rows = append(rows, row{
			Label: c.label, Depth: c.depth, Workers: c.workers,
			WallNS: int64(res.Wall), Blocks: blocks, Inputs: res.Total.Inputs,
			BlocksPerS: float64(blocks) / res.Wall.Seconds(),
			SpeedupSeq: vsSeq, SpeedupPar: vsPar,
		})
		t.row(c.label, c.depth, c.workers, res.Wall.Round(time.Millisecond),
			fmt.Sprintf("%.0f", float64(blocks)/res.Wall.Seconds()),
			fmt.Sprintf("%.2fx", vsSeq), fmt.Sprintf("%.2fx", vsPar))
	}
	t.write(w, "Ablation: cross-block pipelined IBD vs depth and workers")
	fmt.Fprintf(w, "baselines: sequential %v, per-block-parallel (w=%d) %v\n",
		seqWall.Round(time.Millisecond), wide, parWall.Round(time.Millisecond))

	return e.emit("ibdpipe", rows)
}
