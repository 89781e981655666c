// Package simnet is a discrete-event simulator of block gossip over a
// small geo-distributed network, reproducing the propagation-delay
// experiment of the paper (§VI-E): twenty nodes spread over five
// regions, each gossiping to two neighbors, releasing one seed block
// and measuring when every node has received it.
//
// The mechanism under test is the paper's central security argument:
// a node forwards a block only after validating it, so block
// validation time sits on every gossip hop. The per-hop validation
// delay is supplied by a ValidationModel — experiments plug in delays
// measured from the real validators, so the simulation's only
// synthetic parts are the link latencies (DESIGN.md, substitution 5).
package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// ValidationModel samples per-node block validation delays.
type ValidationModel interface {
	// Sample draws one validation duration.
	Sample(rng *rand.Rand) time.Duration
}

// Fixed is a constant validation delay.
type Fixed time.Duration

// Sample implements ValidationModel.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// Normal samples a normally distributed delay truncated at zero. The
// baseline node's validation time varies with cache state (the paper
// notes EBV's lower variance in Fig. 18); StdDev captures that.
type Normal struct {
	Mean   time.Duration
	StdDev time.Duration
}

// Sample implements ValidationModel.
func (n Normal) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.NormFloat64()*float64(n.StdDev)) + n.Mean
	if d < 0 {
		d = 0
	}
	return d
}

// Config describes one simulation.
type Config struct {
	Nodes     int // default 20
	Regions   int // default 5
	Neighbors int // gossip fan-out per node, default 2
	Seed      int64
	// Validation supplies the per-hop validation delay.
	Validation ValidationModel
	// IntraRegion / InterRegion are the base link latencies; a ±20%
	// jitter is applied per message. Defaults: 2ms / 120ms.
	IntraRegion time.Duration
	InterRegion time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 20
	}
	if c.Regions <= 0 {
		c.Regions = 5
	}
	if c.Neighbors <= 0 {
		c.Neighbors = 2
	}
	if c.Validation == nil {
		c.Validation = Fixed(0)
	}
	if c.IntraRegion <= 0 {
		c.IntraRegion = 2 * time.Millisecond
	}
	if c.InterRegion <= 0 {
		c.InterRegion = 120 * time.Millisecond
	}
	return c
}

// Result holds one simulation's outcome.
type Result struct {
	// Arrival[i] is the time node i first received the seed block,
	// measured from release. Arrival[seed] is 0.
	Arrival []time.Duration
}

// Sorted returns the arrival times in ascending order — the series the
// paper plots (node count vs time).
func (r *Result) Sorted() []time.Duration {
	out := append([]time.Duration{}, r.Arrival...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Max returns the time the last node received the block.
func (r *Result) Max() time.Duration {
	var m time.Duration
	for _, a := range r.Arrival {
		if a > m {
			m = a
		}
	}
	return m
}

// event is one scheduled block delivery.
type event struct {
	at   time.Duration
	node int
	from int
}

type eventQueue []event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// buildTopology samples an undirected gossip graph: every node links
// to cfg.Neighbors random distinct peers; the union is resampled until
// connected (bounded attempts).
func buildTopology(cfg Config, rng *rand.Rand) ([][]int, error) {
	for attempt := 0; attempt < 100; attempt++ {
		adj := make(map[int]map[int]struct{}, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			adj[i] = map[int]struct{}{}
		}
		for i := 0; i < cfg.Nodes; i++ {
			for len(adj[i]) < cfg.Neighbors {
				j := rng.Intn(cfg.Nodes)
				if j == i {
					continue
				}
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
		// Connectivity check.
		seen := make([]bool, cfg.Nodes)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for p := range adj[n] {
				if !seen[p] {
					seen[p] = true
					count++
					stack = append(stack, p)
				}
			}
		}
		if count == cfg.Nodes {
			out := make([][]int, cfg.Nodes)
			for i := 0; i < cfg.Nodes; i++ {
				for p := range adj[i] {
					out[i] = append(out[i], p)
				}
				sort.Ints(out[i])
			}
			return out, nil
		}
	}
	return nil, errors.New("simnet: could not sample a connected topology")
}

// Run simulates one seed-block release and returns per-node arrival
// times.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Neighbors >= cfg.Nodes {
		return nil, fmt.Errorf("simnet: %d neighbors with %d nodes", cfg.Neighbors, cfg.Nodes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	adj, err := buildTopology(cfg, rng)
	if err != nil {
		return nil, err
	}
	region := make([]int, cfg.Nodes)
	for i := range region {
		region[i] = i % cfg.Regions
	}
	linkDelay := func(a, b int) time.Duration {
		base := cfg.InterRegion
		if region[a] == region[b] {
			base = cfg.IntraRegion
		}
		jitter := 0.8 + 0.4*rng.Float64()
		return time.Duration(float64(base) * jitter)
	}
	seed := rng.Intn(cfg.Nodes)
	arrival := make([]time.Duration, cfg.Nodes)
	received := make([]bool, cfg.Nodes)

	var q eventQueue
	heap.Init(&q)
	heap.Push(&q, event{at: 0, node: seed, from: -1})
	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		if received[e.node] {
			continue
		}
		received[e.node] = true
		arrival[e.node] = e.at
		// Validate before forwarding: the block validation delay sits
		// on the gossip path.
		forwardAt := e.at + cfg.Validation.Sample(rng)
		for _, p := range adj[e.node] {
			if p == e.from || received[p] {
				continue
			}
			heap.Push(&q, event{at: forwardAt + linkDelay(e.node, p), node: p, from: e.node})
		}
	}
	for i, ok := range received {
		if !ok {
			return nil, fmt.Errorf("simnet: node %d never received the block", i)
		}
	}
	return &Result{Arrival: arrival}, nil
}

// Repeat runs the simulation n times with derived seeds and returns
// all results (the paper repeats five times).
func Repeat(cfg Config, n int) ([]*Result, error) {
	out := make([]*Result, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Stats summarizes repeated runs at each node-count step: for the k-th
// slowest node, the mean / min / max arrival across runs.
type Stats struct {
	Mean, Min, Max []time.Duration
}

// Summarize aligns the sorted arrival curves of several runs.
func Summarize(results []*Result) Stats {
	if len(results) == 0 {
		return Stats{}
	}
	n := len(results[0].Arrival)
	st := Stats{
		Mean: make([]time.Duration, n),
		Min:  make([]time.Duration, n),
		Max:  make([]time.Duration, n),
	}
	for k := 0; k < n; k++ {
		var sum time.Duration
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for _, r := range results {
			v := r.Sorted()[k]
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		st.Mean[k] = sum / time.Duration(len(results))
		st.Min[k] = lo
		st.Max[k] = hi
	}
	return st
}
