package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebv/internal/core"
	"ebv/internal/node"
)

// AblationCache sweeps the verified-proof cache over the Fig. 16a
// measurement window: for each cache size a fresh EBV node replays the
// chain and the window blocks' validation breakdown is reported twice —
// cold (nothing admitted, so every proof misses: ConnectBlock probes
// the cache but never inserts) and mempool-warmed (every window
// transaction is first admitted through ValidateTx, the relay path, so
// block validation finds its proofs already verified). Warming time is excluded: only
// the ConnectBlock breakdown is measured, and the warming pass uses a
// separate decode of each block so hash memoization cannot leak warmth
// into the measured run. size 0 is the uncached baseline the speedup
// column compares against.
//
// Results are also written as BENCH_cache.json into
// Options.ArtifactDir.
func (e *Env) AblationCache(w io.Writer) error {
	sizes := []int{0, 4096, 1 << 16}
	start := e.WindowStart()

	type row struct {
		Size      int     `json:"cache_size"`
		Mode      string  `json:"mode"` // "cold" or "warm"
		TotalNS   int64   `json:"total_ns"`
		EVNS      int64   `json:"ev_ns"`
		UVNS      int64   `json:"uv_ns"`
		SVNS      int64   `json:"sv_ns"`
		OtherNS   int64   `json:"other_ns"`
		CacheHits int     `json:"cache_hits"`
		CacheMiss int     `json:"cache_misses"`
		Evictions uint64  `json:"evictions"`
		Speedup   float64 `json:"speedup_vs_uncached"`
	}
	var rows []row
	var base time.Duration

	t := newTable("cache-size", "mode", "window-total", "ev", "sv", "hits", "misses", "speedup")
	for _, size := range sizes {
		modes := []bool{false}
		if size > 0 {
			modes = []bool{false, true} // cold, then mempool-warmed
		}
		for _, warm := range modes {
			dir, err := e.TempNodeDir()
			if err != nil {
				return err
			}
			cfg := e.EBVNodeConfig(dir)
			cfg.VerifyCacheSize = size
			n, err := node.NewEBVNode(cfg)
			if err != nil {
				return err
			}
			bd, err := e.ebvWindowCached(n, start, warm)
			var evictions uint64
			if c := n.Validator.Cache(); c != nil {
				evictions = c.Stats().Evictions
			}
			n.Close()
			if err != nil {
				return err
			}
			total := bd.Total()
			if size == 0 {
				base = total
			}
			speedup := 1.0
			if total > 0 {
				speedup = float64(base) / float64(total)
			}
			mode := "cold"
			if warm {
				mode = "warm"
			}
			sizeLabel := "off"
			if size > 0 {
				sizeLabel = fmt.Sprint(size)
			}
			t.row(sizeLabel, mode, total, bd.EV, bd.SV,
				bd.CacheHits, bd.CacheMisses, fmt.Sprintf("%.2fx", speedup))
			rows = append(rows, row{
				Size: size, Mode: mode,
				TotalNS: int64(total), EVNS: int64(bd.EV), UVNS: int64(bd.UV),
				SVNS: int64(bd.SV), OtherNS: int64(bd.Other),
				CacheHits: bd.CacheHits, CacheMiss: bd.CacheMisses,
				Evictions: evictions, Speedup: speedup,
			})
		}
	}
	t.write(w, "Ablation: EBV window validation vs verified-proof cache (cold vs mempool-warmed)")
	fmt.Fprintf(w, "window: %d blocks from height %d; warm = every window tx admitted via ValidateTx first\n",
		WindowLen, start)

	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.Opts.ArtifactDir, "BENCH_cache.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "results written to %s\n", path)
	return nil
}

// ebvWindowCached replays the chain into n and sums the measurement
// window blocks' breakdowns, like ebvWindowBreakdown. With warm set,
// each window block's non-coinbase transactions are first run through
// ValidateTx — the mempool-admission path, which populates the
// verified-proof cache — on a second decode of the block, so neither
// cache warmth (deliberate) nor memoized hashes (an artifact we must
// not measure) are shared with the submitted block object except
// through the cache itself.
func (e *Env) ebvWindowCached(n *node.EBVNode, start uint64, warm bool) (*core.Breakdown, error) {
	out := &core.Breakdown{}
	for h := uint64(0); h < start+WindowLen; h++ {
		if h == start {
			// Scope the cache counters to the measurement window: the
			// replay up to here probes the cache (block connect never
			// inserts), and its misses must not be charged to the
			// window rows.
			if c := n.Validator.Cache(); c != nil {
				c.ResetStats()
			}
		}
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		if warm && h >= start {
			pre, err := decodeEBV(raw)
			if err != nil {
				return nil, err
			}
			for i, tx := range pre.Txs {
				if i == 0 {
					continue
				}
				if err := n.Validator.ValidateTx(tx); err != nil {
					return nil, fmt.Errorf("warming height %d tx %d: %w", h, i, err)
				}
			}
		}
		blk, err := decodeEBV(raw)
		if err != nil {
			return nil, err
		}
		bd, err := n.SubmitBlock(blk)
		if err != nil {
			return nil, err
		}
		if h >= start {
			out.Add(bd)
		}
	}
	return out, nil
}
