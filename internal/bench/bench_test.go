package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps unit runs of the harness fast.
func tinyOptions(t *testing.T) Options {
	o := QuickOptions()
	o.Blocks = 400
	o.TxScale = 0.006
	o.Repeats = 2
	// At this scale the UTXO set is tiny; shrink the budget and slow
	// the disk so the paper's disk-bound regime still appears.
	o.MemLimit = 128 << 10
	o.ReadLatency = time.Millisecond
	o.DataDir = t.TempDir()
	o.ArtifactDir = t.TempDir()
	return o
}

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(tinyOptions(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEnvBuildAndCache(t *testing.T) {
	o := tinyOptions(t)
	e, err := NewEnv(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.ClassicChain.Count() != o.Blocks || e.EBVChain.Count() != o.Blocks {
		t.Fatalf("chain counts %d/%d", e.ClassicChain.Count(), e.EBVChain.Count())
	}
	gen1 := e.Gen.TotalTxs
	e.Close()

	// Second open must reuse the cache and restore ground truth.
	var log bytes.Buffer
	e2, err := NewEnv(o, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !strings.Contains(log.String(), "reusing cached chains") {
		t.Fatalf("expected cache reuse, log: %s", log.String())
	}
	if e2.Gen.TotalTxs != gen1 {
		t.Fatalf("ground truth not restored: %d vs %d", e2.Gen.TotalTxs, gen1)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "all", &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{
		"Fig 1:", "Fig 4a:", "Fig 4b:", "Fig 5:", "Fig 14:",
		"Fig 15:", "Fig 16a:", "Fig 16b:", "Fig 17a:", "Fig 17b:", "Fig 18:",
	} {
		if !strings.Contains(out.String(), marker) {
			t.Fatalf("output missing %q", marker)
		}
	}
}

func TestRunByIDErrors(t *testing.T) {
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "fig99", &out); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestMemorySeriesShape(t *testing.T) {
	e := newTestEnv(t)
	samples, err := e.memorySeries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	last := samples[len(samples)-1]
	first := samples[0]
	if last.UTXOCount <= first.UTXOCount {
		t.Fatal("UTXO count must grow")
	}
	if last.EBVBytes >= last.UTXOBytes {
		t.Fatalf("EBV %d must be below Bitcoin %d", last.EBVBytes, last.UTXOBytes)
	}
	if last.EBVBytes > last.EBVDenseBytes {
		t.Fatalf("optimized %d must be <= dense %d", last.EBVBytes, last.EBVDenseBytes)
	}
	// Cache: second call returns identical slice.
	again, err := e.memorySeries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &samples[0] {
		t.Fatal("memory series must be cached")
	}
}

func TestWindowSeriesShape(t *testing.T) {
	e := newTestEnv(t)
	ws, err := e.windowSeries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Bitcoin) != WindowLen || len(ws.EBV) != WindowLen {
		t.Fatalf("window lengths %d/%d", len(ws.Bitcoin), len(ws.EBV))
	}
	for i := range ws.Bitcoin {
		if ws.Bitcoin[i].Inputs != ws.EBV[i].Inputs {
			t.Fatalf("block %d input counts differ", i)
		}
	}
	var btcTotal, ebvTotal time.Duration
	for i := range ws.Bitcoin {
		btcTotal += ws.Bitcoin[i].Total()
		ebvTotal += ws.EBV[i].Total()
	}
	if ebvTotal >= btcTotal {
		t.Fatalf("EBV window %v must beat baseline %v", ebvTotal, btcTotal)
	}
	if len(ws.PrefixBitcoin) == 0 || len(ws.PrefixEBV) == 0 {
		t.Fatal("prefix samples missing")
	}
}

func TestValidationModelFit(t *testing.T) {
	m := validationModel([]time.Duration{10, 10, 10, 10})
	if m.Mean != 10 || m.StdDev != 0 {
		t.Fatalf("constant fit: %+v", m)
	}
	m2 := validationModel([]time.Duration{0, 20})
	if m2.Mean != 10 || m2.StdDev != 10 {
		t.Fatalf("two-point fit: %+v", m2)
	}
	if m3 := validationModel(nil); m3.Mean != 0 {
		t.Fatalf("empty fit: %+v", m3)
	}
}

func TestTableRendering(t *testing.T) {
	tab := newTable("col", "value")
	tab.row("a", time.Millisecond)
	tab.row("bee", 3.14159)
	tab.row("c", 42)
	var out bytes.Buffer
	tab.write(&out, "Title")
	s := out.String()
	for _, want := range []string{"== Title ==", "col", "1.00ms", "3.14", "42", "bee"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtDur(0) != "0" {
		t.Fatal(fmtDur(0))
	}
	if fmtDur(1500*time.Nanosecond) != "1.5µs" {
		t.Fatal(fmtDur(1500 * time.Nanosecond))
	}
	if fmtDur(2500*time.Millisecond) != "2.500s" {
		t.Fatal(fmtDur(2500 * time.Millisecond))
	}
	if fmtBytes(512) != "512B" || fmtBytes(2048) != "2.00KB" {
		t.Fatal("fmtBytes")
	}
	if fmtBytes(3<<20) != "3.00MB" || fmtBytes(5<<30) != "5.00GB" {
		t.Fatal("fmtBytes large")
	}
	if pct(1, 0) != "n/a" || pct(1, 2) != "50.0%" {
		t.Fatal("pct")
	}
	if reduction(0, 1) != "n/a" || reduction(10, 1) != "90.0%" {
		t.Fatal("reduction")
	}
}

func TestWindowStartAndPeriodLen(t *testing.T) {
	e := newTestEnv(t)
	ws := e.WindowStart()
	if ws == 0 || int(ws) >= e.Opts.Blocks {
		t.Fatalf("window start %d out of range", ws)
	}
	ratio := float64(ws) / float64(e.Opts.Blocks)
	if ratio < 0.89 || ratio > 0.92 {
		t.Fatalf("window ratio %.3f not near 590k/650k", ratio)
	}
	if e.PeriodLen() != e.Opts.Blocks/13 {
		t.Fatalf("period len %d", e.PeriodLen())
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-dbcache,ablation-simcost,ablation-latency,ablation-vector", &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{
		"memory budget", "signature-verify cost", "disk model", "sparse-vector optimization",
	} {
		if !strings.Contains(out.String(), marker) {
			t.Fatalf("output missing %q", marker)
		}
	}
}

// TestEnvCloseRemovesNodeDirs runs an experiment that opens a node
// and checks that Env.Close leaves no node directory behind.
func TestEnvCloseRemovesNodeDirs(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	e, err := NewEnv(tinyOptions(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunByID(e, "ablation-vector", io.Discard); err != nil {
		e.Close()
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "ebv-node-*")); len(left) == 0 {
		t.Fatal("ablation-vector opened no node directory under TMPDIR")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "ebv-node-*")); len(left) != 0 {
		t.Fatalf("Env.Close left %v", left)
	}
}

func TestEverythingIncludesAblations(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range Experiments() {
		ids[ex.ID] = true
	}
	for _, want := range []string{"fig1", "fig18", "ablation-dbcache", "ablation-vector", "ablation-reorg"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

// TestExperimentIDsDocumented keeps the registry and the docs in step:
// every registered experiment is documented in EXPERIMENTS.md, and
// every fig*/ablation-* id the docs or scripts/check.sh name is
// registered. Retired ids may appear only in EXPERIMENTS.md, which maps
// each to the perfbench metrics that replaced it.
func TestExperimentIDsDocumented(t *testing.T) {
	retired := map[string]bool{
		"ablation-cache": true, "ablation-admission": true, "ablation-relay": true,
		"ablation-light": true, "ablation-overhead": true, "ablation-shards": true,
	}
	registered := map[string]bool{}
	for _, ex := range Experiments() {
		registered[ex.ID] = true
		if retired[ex.ID] {
			t.Errorf("retired experiment %s is registered", ex.ID)
		}
	}
	named := regexp.MustCompile(`\b(fig[0-9]+[a-z]*|ablation-[a-z]+)\b`)
	for _, doc := range []string{"EXPERIMENTS.md", "README.md", "scripts/check.sh"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, id := range named.FindAllString(text, -1) {
			if !registered[id] && !(retired[id] && doc == "EXPERIMENTS.md") {
				t.Errorf("%s names unknown experiment %s", doc, id)
			}
		}
		if doc != "EXPERIMENTS.md" {
			continue
		}
		for id := range registered {
			if !regexp.MustCompile(`(^|[^a-z0-9-])` + regexp.QuoteMeta(id) + `($|[^a-z0-9-])`).MatchString(text) {
				t.Errorf("EXPERIMENTS.md does not document experiment %s", id)
			}
		}
	}
}

func TestFig14FullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "fig14full", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "full block size") {
		t.Fatal("missing fig14full output")
	}
}

func TestTraceGenSpendRatio(t *testing.T) {
	g := newTraceGen(1, 400)
	totalOut, totalSpend := 0, 0
	for h := 0; h < 400; h++ {
		nOut, spends := g.nextBlock(h)
		totalOut += nOut
		totalSpend += len(spends)
		for _, s := range spends {
			if s.Height >= uint64(h) {
				t.Fatalf("block %d spends its own or future output", h)
			}
		}
	}
	ratio := float64(totalSpend) / float64(totalOut)
	if ratio < 0.80 || ratio > 0.99 {
		t.Fatalf("spend ratio %.3f out of mainnet-like range", ratio)
	}
	if g.live != totalOut-totalSpend {
		t.Fatalf("pool accounting: live %d vs %d", g.live, totalOut-totalSpend)
	}
}

func TestRelatedProofsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "related-proofs", &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Related work") || !strings.Contains(s, "never expire") {
		t.Fatalf("missing related-proofs output:\n%s", s)
	}
}

func TestNetIBDRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "net-ibd", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Networked IBD") {
		t.Fatal("missing net-ibd output")
	}
}

func TestAblationBootstrapRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-bootstrap", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fast-bootstrap state sync") {
		t.Fatalf("missing ablation-bootstrap output:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(e.Opts.ArtifactDir, "BENCH_bootstrap.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance map[string]any   `json:"provenance"`
		Rows       []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rows := doc.Rows
	if len(rows) == 0 {
		t.Fatal("empty BENCH_bootstrap.json")
	}
	for _, k := range []string{"experiment", "nproc", "gomaxprocs", "go", "commit", "seed", "blocks", "txscale", "quick"} {
		if _, ok := doc.Provenance[k]; !ok {
			t.Fatalf("BENCH_bootstrap.json provenance lacks %q: %v", k, doc.Provenance)
		}
	}
	last := rows[len(rows)-1]
	if last["fast_sync_bytes"].(float64) >= last["full_ibd_bytes"].(float64) {
		t.Fatalf("fast sync must transfer less than full IBD: %+v", last)
	}
}

func TestAblationReorgRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-reorg", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "reorg cost vs depth") {
		t.Fatalf("missing ablation-reorg output:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(e.Opts.ArtifactDir, "BENCH_reorg.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Experiment string `json:"experiment"`
			Seed       int64  `json:"seed"`
		} `json:"provenance"`
		Rows []struct {
			Depth        int    `json:"depth"`
			System       string `json:"system"`
			DisconnectNS int64  `json:"disconnect_ns"`
			ReconnectNS  int64  `json:"reconnect_ns"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Provenance.Experiment != "ablation-reorg" || doc.Provenance.Seed != e.Opts.Seed {
		t.Fatalf("provenance does not name the run: %+v", doc.Provenance)
	}
	rows := doc.Rows
	// Two systems per depth, every phase measured on real work.
	if len(rows) != 8 {
		t.Fatalf("want 4 depths x 2 systems, got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.System != "ebv" && r.System != "bitcoin" {
			t.Fatalf("unknown system %q", r.System)
		}
		if r.DisconnectNS <= 0 || r.ReconnectNS <= 0 {
			t.Fatalf("unmeasured phase: %+v", r)
		}
	}
}
