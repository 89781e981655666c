// Command ebvbench reproduces the paper's tables and figures on the
// synthetic mainnet-model chain.
//
// Usage:
//
//	ebvbench -exp all                 # every figure, medium scale
//	ebvbench -exp fig14,fig16 -quick  # selected figures, small scale
//	ebvbench -exp fig17 -blocks 26000 -memlimit 16
//
// Generated chains are cached under -datadir and reused across runs
// with the same scale parameters.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ebv/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id(s), comma-separated: "+bench.IDList()+"; 'all' = figures, 'everything' = figures+ablations")
		blocks   = flag.Int("blocks", 0, "chain height (default preset)")
		txScale  = flag.Float64("txscale", 0, "tx-per-block scale factor (default preset)")
		seed     = flag.Int64("seed", 1, "workload seed")
		memLimit = flag.Int("memlimit", 0, "status-data memory budget in MiB (default preset)")
		latency  = flag.Duration("latency", -1, "injected per-miss disk latency for baseline IBD (default preset)")
		winLat   = flag.Duration("windowlatency", -1, "disk model for the per-block measurement window (default preset)")
		simCost  = flag.Int("simcost", 0, "SimSig verify cost in SHA-256 iterations (default preset)")
		repeats  = flag.Int("repeats", 0, "runs for repeated experiments (default preset)")
		dataDir  = flag.String("datadir", "", "chain cache directory (default $TMPDIR/ebv-bench)")
		artDir   = flag.String("artifactdir", "", "directory for machine-readable BENCH_*.json artifacts (default .)")
		quick    = flag.Bool("quick", false, "small preset for smoke runs")
		workers  = flag.Int("workers", 0, "override worker counts swept by ablation-parallel (0 = {1,2,4,NumCPU})")
		depth    = flag.Int("depth", 0, "cross-block IBD pipeline depth for every EBV node (0 disables; ablation-ibdpipe sweeps its own depths)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	flag.Parse()

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	if *blocks > 0 {
		opts.Blocks = *blocks
	}
	if *txScale > 0 {
		opts.TxScale = *txScale
	}
	opts.Seed = *seed
	if *memLimit > 0 {
		opts.MemLimit = *memLimit << 20
	}
	if *latency >= 0 {
		opts.ReadLatency = *latency
	}
	if *winLat >= 0 {
		opts.WindowLatency = *winLat
	}
	if *simCost > 0 {
		opts.SimCost = *simCost
	}
	if *repeats > 0 {
		opts.Repeats = *repeats
	}
	if *dataDir != "" {
		opts.DataDir = *dataDir
	}
	if *artDir != "" {
		opts.ArtifactDir = *artDir
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	if *depth > 0 {
		opts.PipelineDepth = *depth
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ebvbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ebvbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	env, err := bench.NewEnv(opts, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebvbench:", err)
		os.Exit(1)
	}
	defer env.Close()

	if err := bench.RunByID(env, *exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ebvbench:", err)
		env.Close() // os.Exit skips the deferred Close and its node-dir cleanup
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ebvbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ebvbench:", err)
			os.Exit(1)
		}
	}
}
