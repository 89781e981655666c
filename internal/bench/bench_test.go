package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestAblationCacheRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-cache", &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "verified-proof cache") || !strings.Contains(s, "warm") {
		t.Fatalf("missing ablation-cache output:\n%s", s)
	}
	raw, err := os.ReadFile(filepath.Join(e.Opts.ArtifactDir, "BENCH_cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Size      int    `json:"cache_size"`
		Mode      string `json:"mode"`
		Hits      int    `json:"cache_hits"`
		Misses    int    `json:"cache_misses"`
		Evictions uint64 `json:"evictions"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 rows (1 uncached + 2 sizes x cold/warm), got %d", len(rows))
	}
	for _, r := range rows {
		switch {
		case r.Size == 0 && (r.Hits != 0 || r.Misses != 0):
			t.Fatalf("uncached row must report no cache traffic: %+v", r)
		case r.Size > 0 && r.Mode == "cold" && r.Hits != 0:
			t.Fatalf("cold row must not hit (every window proof is new): %+v", r)
		case r.Size > 0 && r.Mode == "warm" && (r.Hits == 0 || r.Misses != 0):
			t.Fatalf("warm row must hit on every window input: %+v", r)
		}
		// Counters are scoped to the measurement window: every eviction
		// requires an insertion, and window insertions are bounded by
		// the window's cache traffic. The pre-window replay used to
		// leak its evictions into these rows (e.g. thousands of
		// evictions on a row with zero misses).
		if r.Size > 0 && r.Evictions > uint64(r.Hits+r.Misses) {
			t.Fatalf("evictions exceed window cache traffic (stat carry-over from warm-up replay): %+v", r)
		}
	}
}

func TestEverythingIncludesAblations(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range Experiments() {
		ids[ex.ID] = true
	}
	for _, want := range []string{"fig1", "fig18", "ablation-cache", "ablation-vector", "ablation-overhead"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestAblationOverheadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-overhead", &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "uv-floor") || !strings.Contains(s, "zero-copy") {
		t.Fatalf("missing ablation-overhead output:\n%s", s)
	}
	raw, err := os.ReadFile(filepath.Join(e.Opts.ArtifactDir, "BENCH_overhead.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Arm     string  `json:"arm"`
		TotalNS int64   `json:"total_ns"`
		Inputs  int     `json:"inputs"`
		Ratio   float64 `json:"ratio_vs_uv_floor"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"uv-floor": false, "probe-only": false, "copy-decode": false,
		"zero-copy": false, "zero-copy-unpooled": false,
	}
	for _, r := range rows {
		if _, ok := want[r.Arm]; !ok {
			t.Fatalf("unexpected arm %q", r.Arm)
		}
		want[r.Arm] = true
		if r.TotalNS <= 0 || r.Inputs <= 0 {
			t.Fatalf("arm %s measured nothing: %+v", r.Arm, r)
		}
		if r.Arm == "uv-floor" && r.Ratio != 1.0 {
			t.Fatalf("uv-floor must be its own baseline: %+v", r)
		}
	}
	for arm, seen := range want {
		if !seen {
			t.Fatalf("missing arm %s", arm)
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
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty BENCH_bootstrap.json")
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
	var rows []struct {
		Depth        int    `json:"depth"`
		System       string `json:"system"`
		DisconnectNS int64  `json:"disconnect_ns"`
		ReconnectNS  int64  `json:"reconnect_ns"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
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

func TestAblationLightRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-light", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "per 1k subscribers") {
		t.Fatalf("missing ablation-light output:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(e.Opts.ArtifactDir, "BENCH_light.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Subscribers     int     `json:"subscribers"`
		Blocks          int64   `json:"pushed_blocks"`
		MatchNSPerBlock int64   `json:"serve_match_ns_per_block"`
		BytesPer1k      int64   `json:"serve_bytes_per_1k_subs_per_block"`
		ClientVerifyNS  int64   `json:"client_verify_ns_per_block"`
		FullDownloads   int64   `json:"client_full_block_downloads"`
		IBDPerBlockNS   int64   `json:"ibd_ns_per_block"`
		SimLastClientNS int64   `json:"sim_1000_last_client_ns"`
		VerifyVsIBD     float64 `json:"client_verify_over_ibd"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Subscribers <= 0 || report.Blocks <= 0 {
		t.Fatalf("empty run: %+v", report)
	}
	if report.MatchNSPerBlock <= 0 || report.BytesPer1k <= 0 ||
		report.ClientVerifyNS <= 0 || report.IBDPerBlockNS <= 0 ||
		report.SimLastClientNS <= 0 {
		t.Fatalf("unmeasured metric: %+v", report)
	}
	if report.FullDownloads != 0 {
		t.Fatalf("light clients downloaded %d full blocks", report.FullDownloads)
	}
}
