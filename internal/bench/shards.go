package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/statusdb"
)

// commitOp is one block's status-database commit, extracted from the
// bench chain: the arguments an EBV node passes to statusdb.Connect
// after validation succeeds.
type commitOp struct {
	height   uint64
	nOutputs int
	spends   []statusdb.Spend
}

// chainCommitOps decodes the bench EBV chain into the per-block
// Connect arguments, in the validator's scan order (coinbase skipped).
func (e *Env) chainCommitOps() ([]commitOp, error) {
	n := e.EBVChain.Count()
	ops := make([]commitOp, 0, n)
	for h := uint64(0); h < uint64(n); h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return nil, err
		}
		var spends []statusdb.Spend
		for ti := range blk.Txs {
			if ti == 0 {
				continue
			}
			tx := blk.Txs[ti]
			for bi := range tx.Bodies {
				body := &tx.Bodies[bi]
				spends = append(spends, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
			}
		}
		ops = append(ops, commitOp{height: h, nOutputs: blk.TotalOutputs(), spends: spends})
	}
	return ops, nil
}

// AblationShards sweeps the status database's shard count over the
// bench chain's commit stream. Three measurements per configuration:
//
//   - commit: replay every block's Connect back to back — the
//     validator's serial commit path, where sharding buys parallel
//     staging within large blocks;
//   - probe: NumCPU reader goroutines issue batched UV probes against
//     the built set — the mempool/relay read path, where sharding
//     removes the single RWMutex every reader funnels through;
//   - commit+export: the replay again with a concurrent snapshot
//     exporter looping, the statesync serving scenario the shallow
//     per-shard snapshot is designed for.
//
// Every configuration's final state must be byte-identical to the
// single-shard baseline's (and pass CheckInvariants) before any
// number is reported. Results are also written as BENCH_shards.json
// into Options.ArtifactDir.
func (e *Env) AblationShards(w io.Writer) error {
	ops, err := e.chainCommitOps()
	if err != nil {
		return err
	}
	var inputs int
	for _, op := range ops {
		inputs += len(op.spends)
	}

	ncpu := runtime.NumCPU()
	sweep := dedupSorted([]int{1, 2, 4, 8, ncpu})

	replay := func(shards int) (*statusdb.DB, time.Duration, error) {
		d := statusdb.NewSharded(true, shards)
		start := time.Now()
		for i := range ops {
			if err := d.Connect(ops[i].height, ops[i].nOutputs, ops[i].spends); err != nil {
				return nil, 0, fmt.Errorf("ablation-shards: connect %d: %w", ops[i].height, err)
			}
		}
		return d, time.Since(start), nil
	}

	// The probe workload is fixed across configurations: batches of
	// plausible UV probes over the whole height range.
	const probeBatch = 512
	tipHeights := uint64(len(ops))
	probeRng := rand.New(rand.NewSource(e.Opts.Seed + 7))
	probeSets := make([][]statusdb.Spend, ncpu)
	for i := range probeSets {
		batch := make([]statusdb.Spend, probeBatch)
		for j := range batch {
			batch[j] = statusdb.Spend{
				Height: probeRng.Uint64() % tipHeights,
				Pos:    uint32(probeRng.Intn(256)),
			}
		}
		probeSets[i] = batch
	}
	probeRun := func(d *statusdb.DB) (probesPerSec float64) {
		const rounds = 200
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < ncpu; g++ {
			wg.Add(1)
			go func(batch []statusdb.Spend) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					d.IsUnspentBatch(batch)
				}
			}(probeSets[g])
		}
		wg.Wait()
		return float64(ncpu*rounds*probeBatch) / time.Since(start).Seconds()
	}

	type row struct {
		Shards       int     `json:"shards"`
		CommitNS     int64   `json:"commit_ns"`
		BlocksPerS   float64 `json:"blocks_per_sec"`
		ProbesPerS   float64 `json:"probes_per_sec"`
		ExportNS     int64   `json:"commit_with_export_ns"`
		Exports      int64   `json:"exports_completed"`
		SpeedupP     float64 `json:"probe_speedup_vs_1"`
		SpeedupE     float64 `json:"export_speedup_vs_1"`
		MemBytes     int64   `json:"mem_bytes"`
		UnspentCount int64   `json:"unspent_count"`
	}
	var rows []row

	logf(w, "ablation-shards: %d blocks, %d inputs, %d CPU(s)", len(ops), inputs, ncpu)
	t := newTable("shards", "commit", "blocks/s", "probes/s", "commit+export", "exports", "probe-x", "export-x")
	var baseSnap []byte
	var baseProbe, baseExport float64
	for _, shards := range sweep {
		d, commitWall, err := replay(shards)
		if err != nil {
			return err
		}

		// State equality gate: the sharded replay must land on exactly
		// the single-shard baseline's bytes.
		if err := d.CheckInvariants(); err != nil {
			return fmt.Errorf("ablation-shards %d: %w", shards, err)
		}
		var snap bytes.Buffer
		if err := d.Save(&snap); err != nil {
			return err
		}
		if baseSnap == nil {
			baseSnap = snap.Bytes()
		} else if !bytes.Equal(snap.Bytes(), baseSnap) {
			return fmt.Errorf("ablation-shards: %d-shard state diverged from the 1-shard baseline", shards)
		}

		probes := probeRun(d)

		// Replay again with a snapshot exporter hammering the set, the
		// statesync serving scenario.
		d2 := statusdb.NewSharded(true, shards)
		var stop atomic.Bool
		var exports int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, ok, _ := d2.ExportVectors(); ok {
					atomic.AddInt64(&exports, 1)
				}
			}
		}()
		start := time.Now()
		for i := range ops {
			if err := d2.Connect(ops[i].height, ops[i].nOutputs, ops[i].spends); err != nil {
				stop.Store(true)
				wg.Wait()
				return fmt.Errorf("ablation-shards: export replay connect %d: %w", ops[i].height, err)
			}
		}
		exportWall := time.Since(start)
		stop.Store(true)
		wg.Wait()
		var snap2 bytes.Buffer
		if err := d2.Save(&snap2); err != nil {
			return err
		}
		if !bytes.Equal(snap2.Bytes(), baseSnap) {
			return fmt.Errorf("ablation-shards: %d-shard state with concurrent export diverged", shards)
		}

		if shards == 1 {
			baseProbe, baseExport = probes, float64(exportWall)
		}
		r := row{
			Shards:       shards,
			CommitNS:     int64(commitWall),
			BlocksPerS:   float64(len(ops)) / commitWall.Seconds(),
			ProbesPerS:   probes,
			ExportNS:     int64(exportWall),
			Exports:      exports,
			SpeedupP:     probes / baseProbe,
			SpeedupE:     baseExport / float64(exportWall),
			MemBytes:     d.MemUsage(),
			UnspentCount: d.UnspentCount(),
		}
		rows = append(rows, r)
		t.row(shards, commitWall.Round(time.Millisecond),
			fmt.Sprintf("%.0f", r.BlocksPerS),
			fmt.Sprintf("%.2gM", probes/1e6),
			exportWall.Round(time.Millisecond), exports,
			fmt.Sprintf("%.2fx", r.SpeedupP), fmt.Sprintf("%.2fx", r.SpeedupE))
	}
	t.write(w, "Ablation: status-database shard count (state byte-identical across all rows)")

	return e.emit("shards", rows)
}
