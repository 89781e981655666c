package simnet

import (
	"math/rand"
	"testing"
	"time"
)

func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Validation: Fixed(10 * time.Millisecond)}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Arrival {
		if a.Arrival[i] != b.Arrival[i] {
			t.Fatalf("node %d: %v vs %v", i, a.Arrival[i], b.Arrival[i])
		}
	}
	c, _ := Run(Config{Seed: 43, Validation: Fixed(10 * time.Millisecond)})
	same := true
	for i := range a.Arrival {
		if a.Arrival[i] != c.Arrival[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestAllNodesReceive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Arrival) != 20 {
			t.Fatalf("arrival count %d", len(r.Arrival))
		}
		zero := 0
		for _, a := range r.Arrival {
			if a == 0 {
				zero++
			}
		}
		if zero != 1 {
			t.Fatalf("seed %d: %d zero arrivals, want exactly the seed node", seed, zero)
		}
	}
}

func TestSlowerValidationSlowsPropagation(t *testing.T) {
	fast, err := Run(Config{Seed: 7, Validation: Fixed(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{Seed: 7, Validation: Fixed(2 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Max() <= fast.Max() {
		t.Fatalf("slow validation must delay propagation: %v vs %v", slow.Max(), fast.Max())
	}
	// With D hops, the gap should be at least a few validation delays.
	if slow.Max()-fast.Max() < 2*time.Second {
		t.Fatalf("gap too small: %v", slow.Max()-fast.Max())
	}
}

func TestSortedIsMonotonic(t *testing.T) {
	r, err := Run(Config{Seed: 3, Validation: Fixed(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Sorted()
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("Sorted must be ascending")
		}
	}
	if s[len(s)-1] != r.Max() {
		t.Fatal("Max must equal last sorted arrival")
	}
}

func TestRepeatAndSummarize(t *testing.T) {
	results, err := Repeat(Config{Seed: 1, Validation: Fixed(20 * time.Millisecond)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	st := Summarize(results)
	if len(st.Mean) != 20 {
		t.Fatalf("summary length %d", len(st.Mean))
	}
	for k := 0; k < 20; k++ {
		if st.Min[k] > st.Mean[k] || st.Mean[k] > st.Max[k] {
			t.Fatalf("step %d: min %v mean %v max %v", k, st.Min[k], st.Mean[k], st.Max[k])
		}
	}
	if Summarize(nil).Mean != nil {
		t.Fatal("empty summarize must be zero")
	}
}

func TestHighVarianceWidensSpread(t *testing.T) {
	lowVar, err := Repeat(Config{Seed: 5, Validation: Normal{Mean: 100 * time.Millisecond, StdDev: time.Millisecond}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	highVar, err := Repeat(Config{Seed: 5, Validation: Normal{Mean: 100 * time.Millisecond, StdDev: 80 * time.Millisecond}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	low := Summarize(lowVar)
	high := Summarize(highVar)
	k := 19 // last node
	if high.Max[k]-high.Min[k] <= low.Max[k]-low.Min[k] {
		t.Fatalf("high validation variance must widen the arrival spread: %v vs %v",
			high.Max[k]-high.Min[k], low.Max[k]-low.Min[k])
	}
}

func TestValidationModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Fixed(5).Sample(rng) != 5 {
		t.Fatal("Fixed must return its value")
	}
	n := Normal{Mean: time.Second, StdDev: time.Millisecond}
	for i := 0; i < 100; i++ {
		if d := n.Sample(rng); d < 0 {
			t.Fatal("Normal must truncate at zero")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Nodes: 3, Neighbors: 3}); err == nil {
		t.Fatal("neighbors >= nodes must fail")
	}
}

func TestTopologyProperties(t *testing.T) {
	cfg := Config{Seed: 9}.withDefaults()
	rng := rand.New(rand.NewSource(9))
	adj, err := buildTopology(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, peers := range adj {
		if len(peers) < cfg.Neighbors {
			t.Fatalf("node %d has %d peers", i, len(peers))
		}
		for _, p := range peers {
			found := false
			for _, back := range adj[p] {
				if back == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", i, p)
			}
		}
	}
}

func BenchmarkRun(b *testing.B) {
	cfg := Config{Validation: Normal{Mean: 50 * time.Millisecond, StdDev: 10 * time.Millisecond}}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBootstrapModel(t *testing.T) {
	cfg := BootstrapConfig{
		Blocks:     10000,
		FullBytes:  10000 * 200_000,  // 200 KB blocks
		FastBytes:  10000*96 + 5<<20, // headers + a 5 MB snapshot
		Bandwidth:  10 << 20,
		Validation: Normal{Mean: 2 * time.Millisecond, StdDev: 500 * time.Microsecond},
		Install:    300 * time.Millisecond,
		Seed:       7,
	}
	bt, err := Bootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bt.FastSync >= bt.FullIBD {
		t.Fatalf("fast sync %v not faster than full IBD %v", bt.FastSync, bt.FullIBD)
	}
	if bt.Speedup() < 2 {
		t.Fatalf("implausible speedup %.2f for these parameters", bt.Speedup())
	}
	// Deterministic under a fixed seed.
	again, _ := Bootstrap(cfg)
	if again != bt {
		t.Fatalf("%+v vs %+v", again, bt)
	}
	// Transfer-only sanity: with zero compute the ratio is the byte
	// ratio.
	cfg.Validation, cfg.Install = Fixed(0), 0
	bt, _ = Bootstrap(cfg)
	wantRatio := float64(cfg.FullBytes) / float64(cfg.FastBytes)
	if got := bt.Speedup(); got < wantRatio*0.99 || got > wantRatio*1.01 {
		t.Fatalf("transfer-only speedup %.3f, want ~%.3f", got, wantRatio)
	}
	if _, err := Bootstrap(BootstrapConfig{}); err == nil {
		t.Fatal("zero blocks must error")
	}
}
