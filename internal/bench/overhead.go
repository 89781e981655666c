package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/ingest"
	"ebv/internal/node"
	"ebv/internal/statusdb"
)

// overheadCacheSize is the verified-proof cache every arm runs with:
// large enough that the warmed window never evicts, so EV and SV are
// cache hits and the measured work is the wire-speed ingest path
// itself (decode, UV probes, status commit).
const overheadCacheSize = 1 << 16

// overheadState is the per-arm reusable measurement state.
type overheadState struct {
	scr    *ingest.Scratch
	spends []statusdb.Spend
	probes []statusdb.ProbeResult
}

// overheadSpends mirrors core's validation scan order — every
// non-coinbase transaction's bodies, in block order — so the uv-floor
// arm probes exactly the spends ConnectBlock would.
func overheadSpends(b *blockmodel.EBVBlock, buf []statusdb.Spend) []statusdb.Spend {
	buf = buf[:0]
	for ti, tx := range b.Txs {
		if ti == 0 {
			continue
		}
		for bi := range tx.Bodies {
			body := &tx.Bodies[bi]
			buf = append(buf, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
		}
	}
	return buf
}

func checkProbes(res []statusdb.ProbeResult) error {
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("probe %d: %v", i, r.Err)
		}
		if !r.Unspent {
			return fmt.Errorf("probe %d: unexpectedly spent", i)
		}
	}
	return nil
}

// AblationOverhead isolates the warm-path ingest overheads the
// wire-speed path removes, one step at a time. Every arm replays the
// chain prefix, then runs the measurement window with a mempool-warmed
// verified-proof cache (every window transaction admitted via
// ValidateTx first), so EV folds and script executions are cache hits
// and what remains is decode + UV + commit — the per-arm measured
// region, always excluding the chain-store append:
//
//	probe-only          batched UV probe over precollected spends; the
//	                    irreducible cost of answering unspentness
//	uv-floor            zero-copy decode + spend collection + batched
//	                    UV probe: the minimum work to answer
//	                    unspentness starting from wire bytes — the
//	                    ratio denominator
//	copy-decode         copying decode + connect without a scratch
//	                    (the pre-wire-speed path)
//	zero-copy           borrowed-bytes decode + connect on one reused
//	                    ingest scratch (the warm path)
//	zero-copy-unpooled  a fresh scratch per block — what pooling saves
//
// Results are also written as BENCH_overhead.json into
// Options.ArtifactDir.
func (e *Env) AblationOverhead(w io.Writer) error {
	start := e.WindowStart()

	type armResult struct {
		Arm        string  `json:"arm"`
		TotalNS    int64   `json:"total_ns"`
		Inputs     int     `json:"inputs"`
		NSPerInput float64 `json:"ns_per_input"`
		Ratio      float64 `json:"ratio_vs_uv_floor"`
	}

	type arm struct {
		id   string
		step func(n *node.EBVNode, st *overheadState, raw []byte) (time.Duration, error)
	}

	arms := []arm{
		{id: "uv-floor", step: func(n *node.EBVNode, st *overheadState, raw []byte) (time.Duration, error) {
			t0 := time.Now()
			blk, err := st.scr.DecodeEBVBlock(raw)
			if err != nil {
				return 0, err
			}
			st.spends = overheadSpends(blk, st.spends)
			st.probes = n.Status.IsUnspentBatchInto(st.spends, st.probes)
			d := time.Since(t0)
			if err := checkProbes(st.probes); err != nil {
				return 0, err
			}
			_, err = n.Validator.ConnectBlockIn(blk, st.scr)
			return d, err
		}},
		{id: "probe-only", step: func(n *node.EBVNode, st *overheadState, raw []byte) (time.Duration, error) {
			blk, err := st.scr.DecodeEBVBlock(raw)
			if err != nil {
				return 0, err
			}
			st.spends = overheadSpends(blk, st.spends)
			t0 := time.Now()
			st.probes = n.Status.IsUnspentBatchInto(st.spends, st.probes)
			d := time.Since(t0)
			if err := checkProbes(st.probes); err != nil {
				return 0, err
			}
			_, err = n.Validator.ConnectBlockIn(blk, st.scr)
			return d, err
		}},
		{id: "copy-decode", step: func(n *node.EBVNode, _ *overheadState, raw []byte) (time.Duration, error) {
			t0 := time.Now()
			blk, err := blockmodel.DecodeEBVBlock(raw)
			if err != nil {
				return 0, err
			}
			_, err = n.Validator.ConnectBlock(blk)
			return time.Since(t0), err
		}},
		{id: "zero-copy", step: func(n *node.EBVNode, st *overheadState, raw []byte) (time.Duration, error) {
			t0 := time.Now()
			blk, err := st.scr.DecodeEBVBlock(raw)
			if err != nil {
				return 0, err
			}
			_, err = n.Validator.ConnectBlockIn(blk, st.scr)
			return time.Since(t0), err
		}},
		{id: "zero-copy-unpooled", step: func(n *node.EBVNode, _ *overheadState, raw []byte) (time.Duration, error) {
			t0 := time.Now()
			scr := ingest.NewScratch()
			blk, err := scr.DecodeEBVBlock(raw)
			if err != nil {
				return 0, err
			}
			_, err = n.Validator.ConnectBlockIn(blk, scr)
			return time.Since(t0), err
		}},
	}

	var rows []armResult
	var floor time.Duration
	t := newTable("arm", "window-total", "ns/input", "vs-uv-floor")
	for _, a := range arms {
		dir, err := e.TempNodeDir()
		if err != nil {
			return err
		}
		cfg := e.EBVNodeConfig(dir)
		cfg.VerifyCacheSize = overheadCacheSize
		n, err := node.NewEBVNode(cfg)
		if err != nil {
			return err
		}
		st := &overheadState{scr: ingest.NewScratch()}
		var total time.Duration
		inputs := 0
		for h := uint64(0); h < start+WindowLen; h++ {
			raw, err := e.EBVChain.BlockBytes(h)
			if err != nil {
				n.Close()
				return err
			}
			if h < start {
				if _, err := n.SubmitBlockRaw(raw); err != nil {
					n.Close()
					return fmt.Errorf("%s: prefix height %d: %w", a.id, h, err)
				}
				continue
			}
			// Warm the verified-proof cache through the relay path, on a
			// separate decode so no memoized hashes leak into the
			// measured block object.
			pre, err := decodeEBV(raw)
			if err != nil {
				n.Close()
				return err
			}
			for i, tx := range pre.Txs {
				if i == 0 {
					continue
				}
				if err := n.Validator.ValidateTx(tx); err != nil {
					n.Close()
					return fmt.Errorf("%s: warming height %d tx %d: %w", a.id, h, i, err)
				}
				inputs += len(tx.Bodies)
			}
			d, err := a.step(n, st, raw)
			if err != nil {
				n.Close()
				return fmt.Errorf("%s: height %d: %w", a.id, h, err)
			}
			total += d
			if err := n.Chain.Append(pre.Header, raw); err != nil {
				n.Close()
				return err
			}
		}
		n.Close()
		if a.id == "uv-floor" {
			floor = total
		}
		ratio := 0.0
		if floor > 0 {
			ratio = float64(total) / float64(floor)
		}
		perInput := 0.0
		if inputs > 0 {
			perInput = float64(total.Nanoseconds()) / float64(inputs)
		}
		t.row(a.id, total, fmt.Sprintf("%.0f", perInput), fmt.Sprintf("%.2fx", ratio))
		rows = append(rows, armResult{
			Arm: a.id, TotalNS: total.Nanoseconds(), Inputs: inputs,
			NSPerInput: perInput, Ratio: ratio,
		})
	}

	t.write(w, "Ablation: warm-path ingest overhead per step (window, mempool-warmed cache)")
	fmt.Fprintf(w, "window: %d blocks from height %d; measured region excludes chain append; uv-floor = zero-copy decode + spend collection + batched UV probe\n",
		WindowLen, start)

	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.Opts.ArtifactDir, "BENCH_overhead.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "results written to %s\n", path)
	return nil
}
