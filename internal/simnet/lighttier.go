package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// This file models the light-client tier at scale: a handful of full
// nodes gossip a block among themselves exactly as in the base
// simulation, and each full node additionally serves a crowd of
// filter-subscribed light clients (internal/light over kinds 17–20).
// When a serving node finishes validating the block it scans it once
// against its whole subscription registry (the serve side's inverted
// index makes this independent of subscriber count), then works
// through the matching subscribers' outbound queues: each push is
// serialized onto the node's uplink, and each notified client pays
// one request/response round trip for the block body plus its own
// light verification before it counts as converged. The model's knobs
// are deliberately the quantities the ablation-light benchmark
// measures from the real implementation: per-block match time,
// per-subscriber push cost, and client-side verification delay.

// LightTierConfig describes one light-tier simulation.
type LightTierConfig struct {
	Config
	// LightClients is the total number of light subscribers, spread
	// round-robin over the serving nodes. Default 1000.
	LightClients int
	// Servers is how many of the full nodes serve light clients.
	// Default: all of them.
	Servers int
	// MatchFraction is the share of clients whose filter matches the
	// block (the rest converge for free: nothing is pushed to them).
	// Default 1.
	MatchFraction float64
	// MatchPerBlock is the serving node's one-time filter scan over the
	// block. Default 100µs.
	MatchPerBlock time.Duration
	// PushPerClient is the per-matching-subscriber cost of serializing
	// one subupdate push plus one lightblock response onto the node's
	// uplink — the serialized part of the fan-out. Default 10µs.
	PushPerClient time.Duration
	// ClientLatency is the client↔server link latency (±20% jitter per
	// message, like every other link). Default 20ms.
	ClientLatency time.Duration
	// LightVerify samples the client's block verification delay
	// (light.VerifyBlock: core.VerifyWithoutUV, the full verdict minus
	// UV). Defaults to the Validation model.
	LightVerify ValidationModel
}

func (c LightTierConfig) withDefaults() LightTierConfig {
	c.Config = c.Config.withDefaults()
	if c.LightClients <= 0 {
		c.LightClients = 1000
	}
	if c.Servers <= 0 || c.Servers > c.Nodes {
		c.Servers = c.Nodes
	}
	if c.MatchFraction <= 0 || c.MatchFraction > 1 {
		c.MatchFraction = 1
	}
	if c.MatchPerBlock <= 0 {
		c.MatchPerBlock = 100 * time.Microsecond
	}
	if c.PushPerClient <= 0 {
		c.PushPerClient = 10 * time.Microsecond
	}
	if c.ClientLatency <= 0 {
		c.ClientLatency = 20 * time.Millisecond
	}
	if c.LightVerify == nil {
		c.LightVerify = c.Validation
	}
	return c
}

// LightTierResult holds one light-tier simulation's outcome.
type LightTierResult struct {
	// Full is the base simulation's result for the full-node mesh.
	Full *Result
	// Verified[i] is the time light client i finished verifying the
	// pushed block, from block release. Non-matching clients are absent.
	Verified []time.Duration
	// Matched is how many clients' filters matched the block.
	Matched int
	// ServeBusy[s] is serving node s's total CPU time spent on the
	// light tier for this block (match scan + all pushes).
	ServeBusy []time.Duration
}

// LastClient returns the time the slowest matching client converged.
func (r *LightTierResult) LastClient() time.Duration {
	var m time.Duration
	for _, v := range r.Verified {
		if v > m {
			m = v
		}
	}
	return m
}

// SortedClients returns client convergence times ascending — the tier's
// analogue of the paper's node-count-vs-time propagation plot.
func (r *LightTierResult) SortedClients() []time.Duration {
	out := append([]time.Duration{}, r.Verified...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunLightTier simulates one block's propagation through the full-node
// mesh and out to every subscribed light client.
func RunLightTier(cfg LightTierConfig) (*LightTierResult, error) {
	cfg = cfg.withDefaults()
	full, err := Run(cfg.Config)
	if err != nil {
		return nil, err
	}
	if len(full.Arrival) < cfg.Servers {
		return nil, fmt.Errorf("simnet: %d servers with %d nodes", cfg.Servers, len(full.Arrival))
	}
	// A separate stream from the base run's rng: the mesh result must
	// not shift when the tier parameters change.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	res := &LightTierResult{Full: full, ServeBusy: make([]time.Duration, cfg.Servers)}
	queued := make([]int, cfg.Servers) // matching subscribers ahead in each server's queue
	for i := 0; i < cfg.LightClients; i++ {
		if rng.Float64() >= cfg.MatchFraction {
			continue
		}
		s := i % cfg.Servers
		if queued[s] == 0 {
			res.ServeBusy[s] += cfg.MatchPerBlock
		}
		queued[s]++
		res.ServeBusy[s] += cfg.PushPerClient
		// The server starts pushing once it has validated the block and
		// scanned it; this client's push leaves after the subscribers
		// queued ahead of it. The client then fetches the body (one
		// round trip) and verifies.
		jitter := func() time.Duration {
			return time.Duration(float64(cfg.ClientLatency) * (0.8 + 0.4*rng.Float64()))
		}
		at := full.Arrival[s] + cfg.MatchPerBlock +
			time.Duration(queued[s])*cfg.PushPerClient +
			jitter() + // subupdate push
			jitter() + jitter() + // getlightblock / lightblock round trip
			cfg.LightVerify.Sample(rng)
		res.Verified = append(res.Verified, at)
		res.Matched++
	}
	return res, nil
}
