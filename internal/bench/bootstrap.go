package bench

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/simnet"
	"ebv/internal/statesync"
	"ebv/internal/statusdb"
)

// bootstrapSpan keeps snapshots multi-chunk at bench scales so the
// concurrent download path is actually exercised.
const bootstrapSpan = 256

// AblationBootstrap measures what a joining EBV node pays on each
// bootstrap path, across chain lengths: full IBD (every block over
// gossip, validated one by one) against fast-bootstrap state sync
// (headers plus the digest-verified bit-vector snapshot, §IV-E). Both
// clients end at the same tip and the fast-synced status set is
// checked byte-identical to the replayed one before any number is
// reported. Wall clocks are loopback TCP, so the transferred-bytes
// columns are the transportable result; a modeled 10 MB/s WAN join
// time derived from them (simnet.Bootstrap) is reported alongside.
//
// Results are also written as BENCH_bootstrap.json into
// Options.ArtifactDir.
func (e *Env) AblationBootstrap(w io.Writer) error {
	lengths := []int{e.Opts.Blocks / 4, e.Opts.Blocks / 2, e.Opts.Blocks}
	type row struct {
		Blocks      int     `json:"blocks"`
		FullNS      int64   `json:"full_ibd_ns"`
		FullBytes   int64   `json:"full_ibd_bytes"`
		FastNS      int64   `json:"fast_sync_ns"`
		FastBytes   int64   `json:"fast_sync_bytes"`
		Chunks      int     `json:"fast_sync_chunks"`
		BytesRatio  float64 `json:"bytes_ratio"`
		WanFullNS   int64   `json:"wan_model_full_ns"`
		WanFastNS   int64   `json:"wan_model_fast_ns"`
		WallSpeedup float64 `json:"wall_speedup"`
	}
	var rows []row

	logf(w, "ablation-bootstrap: join cost per bootstrap path, chain lengths %v", lengths)
	t := newTable("blocks", "full-ibd", "full-bytes", "fast-sync", "fast-bytes", "bytes-ratio")
	seen := map[int]bool{}
	for _, L := range lengths {
		if L < 8 || seen[L] {
			continue
		}
		seen[L] = true
		r, err := e.bootstrapOne(L)
		if err != nil {
			return err
		}
		wan, err := simnet.Bootstrap(simnet.BootstrapConfig{
			Blocks: L, FullBytes: r.fullBytes, FastBytes: r.fastBytes,
			Bandwidth: 10 << 20,
		})
		if err != nil {
			return err
		}
		ratio := float64(r.fullBytes) / float64(r.fastBytes)
		rows = append(rows, row{
			Blocks: L,
			FullNS: int64(r.fullWall), FullBytes: r.fullBytes,
			FastNS: int64(r.fastWall), FastBytes: r.fastBytes,
			Chunks: r.chunks, BytesRatio: ratio,
			WanFullNS: int64(wan.FullIBD), WanFastNS: int64(wan.FastSync),
			WallSpeedup: float64(r.fullWall) / float64(r.fastWall),
		})
		t.row(L, r.fullWall, r.fullBytes, r.fastWall, r.fastBytes, fmt.Sprintf("%.1fx", ratio))
	}
	t.write(w, "Joining node: full IBD vs fast-bootstrap state sync")
	last := rows[len(rows)-1]
	if last.FastBytes >= last.FullBytes {
		return fmt.Errorf("ablation-bootstrap: fast sync moved %d bytes, full IBD %d — snapshot larger than the chain",
			last.FastBytes, last.FullBytes)
	}
	fmt.Fprintf(w, "transfer reduction at %d blocks: %s; modeled 10MB/s WAN join %v -> %v\n",
		last.Blocks, reduction(float64(last.FullBytes), float64(last.FastBytes)),
		time.Duration(last.WanFullNS), time.Duration(last.WanFastNS))

	return e.emit("bootstrap", rows)
}

type bootstrapResult struct {
	fullWall, fastWall   time.Duration
	fullBytes, fastBytes int64
	chunks               int
}

// bootstrapOne joins two fresh clients to a server holding the first
// L blocks of the prebuilt EBV chain — one over full gossip IBD, one
// over fast sync — and cross-checks their final state.
func (e *Env) bootstrapOne(L int) (*bootstrapResult, error) {
	// Server: a real node at tip L-1 serving gossip and snapshots.
	dir, err := e.TempNodeDir()
	if err != nil {
		return nil, err
	}
	server, err := node.NewEBVNode(e.EBVNodeConfig(dir))
	if err != nil {
		return nil, err
	}
	defer server.Close()
	for h := uint64(0); h < uint64(L); h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return nil, err
		}
		if _, err := server.SubmitBlock(blk); err != nil {
			return nil, fmt.Errorf("ablation-bootstrap: server replay %d: %w", h, err)
		}
	}
	gossip := p2p.NewNode(p2p.EBVChain{Node: server}, p2p.Config{
		Snapshots: statesync.NewServer(server.Chain, server.Status, statesync.WithSpan(bootstrapSpan)),
	})
	addr, err := gossip.Start()
	if err != nil {
		return nil, err
	}
	defer gossip.Close()
	tip := uint64(L - 1)

	r := &bootstrapResult{}

	// Path 1: full IBD through the gossip protocol.
	fullDir, err := e.TempNodeDir()
	if err != nil {
		return nil, err
	}
	full, err := node.NewEBVNode(e.EBVNodeConfig(fullDir))
	if err != nil {
		return nil, err
	}
	defer full.Close()
	fullGossip := p2p.NewNode(p2p.EBVChain{Node: full}, p2p.Config{})
	if _, err := fullGossip.Start(); err != nil {
		return nil, err
	}
	defer fullGossip.Close()
	start := time.Now()
	if err := fullGossip.Connect(addr); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Minute)
	for {
		got, ok := full.Chain.TipHeight()
		if ok && got == tip {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ablation-bootstrap: full IBD timed out at %v of %d", got, tip)
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.fullWall = time.Since(start)
	r.fullBytes = fullGossip.BytesRead()

	// Path 2: fast-bootstrap state sync.
	fastDir, err := e.TempNodeDir()
	if err != nil {
		return nil, err
	}
	fastChain, err := chainstore.Open(filepath.Join(fastDir, "chain"))
	if err != nil {
		return nil, err
	}
	defer fastChain.Close()
	fastStatus := statusdb.New()
	res, err := statesync.FastSync(fastChain, fastStatus, statesync.Config{
		Peers: []string{addr},
		Dir:   filepath.Join(fastDir, "statesync"),
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-bootstrap: fast sync: %w", err)
	}
	r.fastWall = res.Wall
	r.fastBytes = res.BytesReceived
	r.chunks = res.Chunks

	// Both paths must land on the same tip with the same status set.
	if res.TipHeight != tip || res.TipHash != server.Chain.TipHash() {
		return nil, fmt.Errorf("ablation-bootstrap: fast sync tip %d != %d", res.TipHeight, tip)
	}
	var a, b bytes.Buffer
	if err := fastStatus.Save(&a); err != nil {
		return nil, err
	}
	if err := full.Status.Save(&b); err != nil {
		return nil, err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return nil, fmt.Errorf("ablation-bootstrap: fast-synced status set differs from full-IBD state at %d blocks", L)
	}
	return r, nil
}
