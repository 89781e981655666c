// Command perfbench is the repository's benchmark. It generates a
// seeded EBV chain fixture, runs one workload against the real node
// code in this process over localhost TCP, checks every output, and
// prints the workload's metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload tip_relay --seed 1 --seconds 15 --trace 0
//
// from the repository root; run.sh builds this module and keeps the Go
// caches inside the checkout. --trace 0 measures the
// end-to-end metrics; --trace 1 is the traced run, reporting per-layer
// metrics and the tracing overhead. See README.md for the workloads,
// the metric tables, and what is deliberately not measured.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDirRoot holds the benchmark's state under the directory it runs
// from: each run's scratch directory (node data), the fixture cache,
// and the traced runs' spans.
const workDirRoot = ".bench_build/perfbench"

// runLimit bounds a whole run; past it the run fails without a result.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what a workload runs with.
type env struct {
	dir     string // the run's scratch directory
	fx      *fixture
	seconds time.Duration
	traced  bool
	tr      *tracer // nil unless traced
}

// result collects a workload's counts, output-check failures and
// metrics.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// set records a metric; a value that could not be measured is an
// output failure, never a silently missing metric.
func (r *result) set(name, unit string, v float64) {
	if r.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s not measurable", name) {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

// tail records a tail percentile of samples, which the run must hold
// enough of: at least ten beyond it.
func (r *result) tail(name, unit string, samples []float64, q float64) {
	v, ok := quantile(samples, q)
	if r.check(ok, "%s: %d samples, too few for a tail percentile", name, len(samples)) {
		r.set(name, unit, v)
	}
}

// manifestMetrics returns the metrics BENCHMARK.json names for a run:
// its end-to-end metrics untraced, its per-layer metrics traced.
func manifestMetrics(traced bool) ([]manifestMetric, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// complete holds the result to the manifest: every metric it names, in
// its unit, and no other. Every workload measures every end-to-end
// metric from its own traffic. A per-layer metric a workload does not
// measure — its layer is idle there, or out of the benchmark's reach
// on that workload (README.md lists where each is measured) — reads 0.
func (r *result) complete(want []manifestMetric, traced bool) {
	named := make(map[string]bool, len(want))
	for _, m := range want {
		named[m.Name] = true
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && traced:
			r.metrics[m.Name] = metric{Value: 0, Unit: m.Unit}
		case !ok:
			r.check(false, "metric %s not measured", m.Name)
		case got.Unit != m.Unit:
			r.check(false, "metric %s in %s, manifest says %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.metrics {
		r.check(named[name], "metric %s is not in BENCHMARK.json", name)
	}
}

var workloads = map[string]func(*env, *result) error{
	"ibd_replay": runIBDReplay,
	"tx_submit":  runTxSubmit,
	"tip_relay":  runTipRelay,
}

func main() {
	var (
		name    = flag.String("workload", "", "ibd_replay, tx_submit or tip_relay")
		seed    = flag.Int64("seed", 1, "fixture seed")
		seconds = flag.Int("seconds", 10, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {ibd_replay|tx_submit|tip_relay} --seed N --seconds N --trace {0|1}\n")
		os.Exit(2)
	}
	go func() {
		time.Sleep(runLimit)
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(3)
	}()
	if err := run(*name, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, wl func(*env, *result) error, seed int64, seconds time.Duration, traced bool) error {
	if err := os.MkdirAll(workDirRoot, 0o755); err != nil {
		return err
	}
	digest := sourceDigest()
	fx, err := loadFixture(seed, digest)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	dir, err := os.MkdirTemp(workDirRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir, fx: fx, seconds: seconds, traced: traced}
	if traced {
		e.tr = newTracer()
	}
	want, err := manifestMetrics(traced)
	if err != nil {
		return err
	}
	r := newResult()
	if err := wl(e, r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.complete(want, traced)
	if traced {
		if err := os.MkdirAll(filepath.Join(workDirRoot, "traces"), 0o755); err != nil {
			return err
		}
		path := filepath.Join(workDirRoot, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}

	prov, err := json.Marshal(provenance(name, seed, seconds, traced, digest, fx, r))
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", prov)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d output checks failed", len(r.problems))
	}
	return nil
}

// provenance describes the host, the code and the inputs of a result.
func provenance(name string, seed int64, seconds time.Duration, traced bool, digest string, fx *fixture, r *result) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	failRatio := 0.0
	if r.attempted > 0 {
		failRatio = float64(r.failed) / float64(r.attempted)
	}
	return map[string]any{
		"workload":       name,
		"traced":         traced,
		"seed":           seed,
		"run_seconds":    seconds.Seconds(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit,
		"source_digest":  digest,
		"fixture":        fx.print,
		"fixture_cached": fx.cached,
		"fixture_s":      fx.genTime.Seconds(),
		"fail_ratio":     failRatio,
	}
}

// sourceDigest hashes every Go source and module file under the
// directory the benchmark runs from, so a result names the code it
// measured even where no git metadata exists.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
