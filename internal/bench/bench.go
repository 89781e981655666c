// Package bench is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation (and the problem-analysis figures)
// on the synthetic mainnet-model chain, printing the same rows and
// series the paper reports. cmd/ebvbench is the CLI front end;
// bench_test.go at the repository root exposes each experiment as a
// testing.B benchmark.
//
// All experiments share one Env: a deterministic classic chain and its
// EBV reconstruction, built once per parameter set and cached on disk,
// so figure runs are comparable and re-runnable.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/node"
	"ebv/internal/proof"
	"ebv/internal/sig"
	"ebv/internal/workload"
)

// Options scales and parameterizes the experiments.
type Options struct {
	// Blocks is the synthetic chain height (mainnet 650k is mapped
	// onto it). Default 13,000 (1/50 scale).
	Blocks int
	// TxScale scales per-block activity. Default 0.02.
	TxScale float64
	// Seed fixes the logical history.
	Seed int64
	// MemLimit is the status-data memory budget for both systems, the
	// paper's 500 MB knob scaled down so the UTXO-set:budget ratio
	// matches the paper's (~4.3GB:500MB ≈ 8:1 at the tip; our set
	// reaches ~7MB). Default 1 MiB.
	MemLimit int
	// ReadLatency models the paper's HDD on the baseline's database
	// reads during IBD. Default 100µs — a fast-seek disk, keeping the
	// full-chain replays tractable.
	ReadLatency time.Duration
	// WindowLatency is the disk model for the per-block measurement
	// window (Figs. 4, 15, 16, 18): the chain prefix syncs without
	// injection, then the window runs under an HDD-class latency.
	// Default 2ms, matching the seek times behind the paper's
	// multi-second block validations.
	WindowLatency time.Duration
	// SimCost is the SimSig verification cost (SHA-256 iterations),
	// calibrating Script Validation. The default, 1000, makes one
	// verification cost what a stdlib ECDSA P-256 verify costs
	// (~100µs), the ECDSA-equivalent the experiments assume; the quick
	// preset uses the library default (sig.DefaultSimCost) for speed.
	SimCost int
	// Repeats is the number of runs for the experiments the paper
	// repeats five times (Figs. 17, 18).
	Repeats int
	// DataDir caches generated chains between runs. Default
	// os.TempDir()/ebv-bench.
	DataDir string
	// Quick shrinks everything for smoke tests.
	Quick bool
	// Workers, when > 1, runs every EBV node with the parallel
	// proof-verification pipeline at that width; ablation-parallel
	// additionally narrows its sweep to {1, Workers}. 0 keeps the
	// sequential validator (and the default sweep).
	Workers int
	// PipelineDepth, when > 0, runs every EBV node's IBD through the
	// cross-block pipeline at that depth; ablation-ibdpipe sweeps its
	// own depths regardless. 0 keeps one-block-at-a-time replay.
	PipelineDepth int
	// ArtifactDir is where experiments that emit machine-readable
	// results (BENCH_<id>.json, see Env.emit) write them. Default "."
	// (the current directory).
	ArtifactDir string
}

// DefaultOptions returns the medium preset used by EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{
		Blocks:        13_000,
		TxScale:       0.02,
		Seed:          1,
		MemLimit:      1 << 20,
		ReadLatency:   100 * time.Microsecond,
		WindowLatency: 2 * time.Millisecond,
		SimCost:       1000,
		Repeats:       5,
	}
}

// QuickOptions returns a small preset for CI and -short runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Blocks = 800
	o.TxScale = 0.01
	o.MemLimit = 128 << 10
	o.ReadLatency = 30 * time.Microsecond
	o.WindowLatency = time.Millisecond
	o.SimCost = sig.DefaultSimCost
	o.Repeats = 3
	o.Quick = true
	return o
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Blocks <= 0 {
		o.Blocks = d.Blocks
	}
	if o.TxScale <= 0 {
		o.TxScale = d.TxScale
	}
	if o.MemLimit <= 0 {
		o.MemLimit = d.MemLimit
	}
	if o.SimCost <= 0 {
		o.SimCost = d.SimCost
	}
	if o.WindowLatency <= 0 {
		o.WindowLatency = d.WindowLatency
	}
	if o.Repeats <= 0 {
		o.Repeats = d.Repeats
	}
	if o.DataDir == "" {
		o.DataDir = filepath.Join(os.TempDir(), "ebv-bench")
	}
	if o.ArtifactDir == "" {
		o.ArtifactDir = "."
	}
	return o
}

// fingerprint identifies the chain a parameter set produces.
func (o Options) fingerprint() string {
	return fmt.Sprintf("b%d-s%g-seed%d-cost%d", o.Blocks, o.TxScale, o.Seed, o.SimCost)
}

// Scheme returns the signature scheme the options imply.
func (o Options) Scheme() sig.Scheme { return sig.SimSig{Cost: o.SimCost} }

// workloadParams maps Options onto generator parameters.
func (o Options) workloadParams() workload.Params {
	p := workload.DefaultParams()
	p.Blocks = o.Blocks
	p.TxScale = o.TxScale
	p.Seed = o.Seed
	p.Scheme = o.Scheme()
	if o.Quick {
		p.YoungWindow = 500
	}
	return p
}

// Env holds the shared fixtures: both renderings of the chain.
type Env struct {
	Opts         Options
	ClassicChain *chainstore.Store
	EBVChain     *chainstore.Store
	// Gen retains the generator for ground truth and re-signing.
	Gen *workload.Generator

	closers []func() error

	// Cached cross-experiment results.
	memCache    []MemSample
	windowCache *WindowSeries
}

// NewEnv builds (or reuses from the options' data directory) the
// classic chain and its EBV reconstruction. log, if non-nil, receives
// progress lines.
func NewEnv(opts Options, log io.Writer) (*Env, error) {
	opts = opts.withDefaults()
	dir := filepath.Join(opts.DataDir, opts.fingerprint())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Env{Opts: opts}

	// The generator is always replayed: it is fast relative to chain
	// conversion and provides ground truth + the resigner.
	e.Gen = workload.NewGenerator(opts.workloadParams())

	classicDir := filepath.Join(dir, "classic")
	ebvDir := filepath.Join(dir, "inter")

	classic, err := chainstore.Open(classicDir)
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, classic.Close)
	e.ClassicChain = classic

	im, err := proof.NewIntermediary(ebvDir, e.Gen.Resign)
	if err != nil {
		e.Close()
		return nil, err
	}
	e.closers = append(e.closers, im.Close)
	e.EBVChain = im.Chain()

	cached := classic.Count() == opts.Blocks && im.Chain().Count() == opts.Blocks
	if cached {
		logf(log, "reusing cached chains in %s (%d blocks)", dir, opts.Blocks)
		// Replay the generator to restore ground-truth state.
		for !e.Gen.Done() {
			if _, err := e.Gen.NextBlock(); err != nil {
				e.Close()
				return nil, err
			}
		}
		return e, nil
	}
	if classic.Count() != 0 || im.Chain().Count() != 0 {
		e.Close()
		return nil, fmt.Errorf("bench: stale partial chains in %s; delete and retry", dir)
	}

	logf(log, "building chains: %d blocks into %s", opts.Blocks, dir)
	start := time.Now()
	for !e.Gen.Done() {
		cb, err := e.Gen.NextBlock()
		if err != nil {
			e.Close()
			return nil, err
		}
		if err := classic.Append(cb.Header, cb.Encode(nil)); err != nil {
			e.Close()
			return nil, err
		}
		if _, err := im.ProcessBlock(cb); err != nil {
			e.Close()
			return nil, err
		}
		if h := cb.Header.Height; h%2000 == 1999 {
			logf(log, "  built %d/%d blocks (%.0fs)", h+1, opts.Blocks, time.Since(start).Seconds())
		}
	}
	logf(log, "chains ready: %d txs, %d inputs, %d outputs (%.0fs)",
		e.Gen.TotalTxs, e.Gen.TotalInputs, e.Gen.TotalOutputs, time.Since(start).Seconds())
	return e, nil
}

// Close releases the chain stores.
func (e *Env) Close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// TempNodeDir returns a fresh scratch directory for a node; Close
// removes it.
func (e *Env) TempNodeDir() (string, error) {
	dir, err := os.MkdirTemp("", "ebv-node-*")
	if err != nil {
		return "", err
	}
	e.closers = append(e.closers, func() error { return os.RemoveAll(dir) })
	return dir, nil
}

// EBVNodeConfig is the node configuration every EBV-side experiment
// uses: the options' signature scheme and — when
// Options.Workers / Options.PipelineDepth ask for them — the parallel
// validation pipeline and the cross-block IBD pipeline. No experiment
// admits transactions, so the node has no verified-proof cache.
func (e *Env) EBVNodeConfig(dir string) node.Config {
	return node.Config{
		Dir:                dir,
		Scheme:             e.Opts.Scheme(),
		ParallelValidation: e.Opts.Workers,
		PipelineDepth:      e.Opts.PipelineDepth,
	}
}

// WindowStart maps the paper's block-590,000 measurement window onto
// the scaled chain: the height at the same relative position,
// 590,000/650,000 of the way in.
func (e *Env) WindowStart() uint64 {
	return uint64(float64(e.Opts.Blocks) * 590_000.0 / 650_000.0)
}

// PeriodLen maps the paper's 50,000-block IBD periods onto the scaled
// chain (13 periods).
func (e *Env) PeriodLen() int {
	p := e.Opts.Blocks / 13
	if p < 1 {
		p = 1
	}
	return p
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// decodeClassic and decodeEBV are shared deserialization shims for the
// experiment passes.
func decodeClassic(raw []byte) (*blockmodel.ClassicBlock, error) {
	return blockmodel.DecodeClassicBlock(raw)
}

func decodeEBV(raw []byte) (*blockmodel.EBVBlock, error) {
	return blockmodel.DecodeEBVBlock(raw)
}
