package bench

import (
	"fmt"
	"io"
	"math/rand"

	"ebv/internal/statusdb"
	"ebv/internal/workload"
)

// Fig14Full reproduces Fig. 14 at *full block size*. The scaled chain
// used elsewhere shrinks blocks to ~50 outputs, which leaves the
// sparse-vector optimization almost no headroom (a 50-bit dense vector
// is 9 bytes). The optimization's 42.6% saving in the paper comes from
// paper-size blocks — thousands of outputs — whose old vectors drain
// to a few percent unspent. This experiment replays a full-block-size
// spend trace directly into a bit-vector set and reads both of its
// footprints: MemUsage (the optimized line) and DenseUsage (the same
// vectors encoded densely, the no-opt line). Block heights are
// compressed 100:1 but every block carries the full mainnet
// output/input counts from the activity model, and the spend ratio
// matches mainnet's (~96% of outputs eventually spent).
//
// The UTXO-set line is modeled from the same trace: live outputs times
// the average serialized entry size measured on the validated chain.
func (e *Env) Fig14Full(w io.Writer) error {
	blocks := e.Opts.Blocks / 2
	if blocks > 6500 {
		blocks = 6500
	}
	if blocks < 130 {
		blocks = 130
	}
	logf(w, "Fig 14 (full block size): %d compressed heights, full mainnet activity", blocks)

	// Average UTXO entry size from the real validated chain, for the
	// modeled Bitcoin line.
	samples, err := e.memorySeries(w)
	if err != nil {
		return err
	}
	last := samples[len(samples)-1]
	entryBytes := float64(72)
	if last.UTXOCount > 0 {
		entryBytes = float64(last.UTXOBytes) / float64(last.UTXOCount)
	}

	set := statusdb.New()
	trace := newTraceGen(e.Opts.Seed, blocks)

	nSamples := 26
	step := blocks / nSamples
	if step < 1 {
		step = 1
	}
	t := newTable("quarter", "utxo-count", "bitcoin(model)", "ebv", "ebv-no-opt", "ebv-vs-bitcoin", "opt-saving")
	for h := 0; h < blocks; h++ {
		nOut, spends := trace.nextBlock(h)
		if err := set.Connect(uint64(h), nOut, spends); err != nil {
			return fmt.Errorf("fig14full at %d: %v", h, err)
		}
		if (h+1)%step == 0 || h == blocks-1 {
			mh := uint64(h) * 650_000 / uint64(blocks-1)
			live := set.UnspentCount()
			utxoModel := int64(float64(live) * entryBytes)
			t.row(workload.QuarterLabel(mh), live, fmtBytes(utxoModel),
				fmtBytes(set.MemUsage()), fmtBytes(set.DenseUsage()),
				reduction(float64(utxoModel), float64(set.MemUsage())),
				reduction(float64(set.DenseUsage()), float64(set.MemUsage())))
		}
	}
	t.write(w, "Fig 14 (full block size): memory requirement comparison")
	fmt.Fprintf(w, "final: bitcoin(model) %s, ebv %s (%s reduction; paper: 93.1%%), no-opt %s (optimization saves %s; paper: 42.6%%)\n",
		fmtBytes(int64(float64(set.UnspentCount())*entryBytes)), fmtBytes(set.MemUsage()),
		reduction(float64(set.UnspentCount())*entryBytes, float64(set.MemUsage())),
		fmtBytes(set.DenseUsage()),
		reduction(float64(set.DenseUsage()), float64(set.MemUsage())))
	return nil
}

// traceGen produces a full-scale spend trace: per block, the output
// count and the spends, with mainnet-like spend ratio and age mix.
type traceGen struct {
	rng    *rand.Rand
	blocks int
	// pool of live outputs, packed height<<16 | position; tombstoned
	// in place and compacted when mostly dead (creation order is the
	// age signal, so swap-remove would break sampling).
	pool []uint64
	dead []bool
	live int
	// debt carries unspendable demand forward so the spend ratio
	// holds over the whole trace even when the early pool is thin.
	debt float64
}

func newTraceGen(seed int64, blocks int) *traceGen {
	return &traceGen{rng: rand.New(rand.NewSource(seed ^ 0x5EED)), blocks: blocks}
}

// spendRatio is the long-run fraction of outputs that get spent —
// mainnet retains only a few percent of all outputs ever created.
const spendRatio = 0.96

// nextBlock returns the block's output count and its spends, and
// updates the pool.
func (g *traceGen) nextBlock(h int) (int, []statusdb.Spend) {
	mh := uint64(h) * 650_000 / uint64(g.blocks-1)
	nOut := int(workload.MainnetOutputsPerBlock(mh))
	if nOut < 1 {
		nOut = 1
	}
	if nOut > 65535 {
		nOut = 65535
	}
	want := workload.MainnetOutputsPerBlock(mh)*spendRatio + g.debt
	nIn := int(want)
	g.debt = want - float64(nIn)

	var spends []statusdb.Spend
	const maturity = 100
	window := g.youngWindow()
	for i := 0; i < nIn; i++ {
		idx := g.sample(window, h, maturity)
		if idx < 0 {
			g.debt += float64(nIn - i) // starved: carry demand forward
			break
		}
		packed := g.pool[idx]
		g.dead[idx] = true
		g.live--
		spends = append(spends, statusdb.Spend{Height: packed >> 16, Pos: uint32(packed & 0xFFFF)})
	}
	g.compactIfNeeded()

	for p := 0; p < nOut; p++ {
		g.pool = append(g.pool, uint64(h)<<16|uint64(p))
		g.dead = append(g.dead, false)
		g.live++
	}
	return nOut, spends
}

// youngWindow is the slot window young spends draw from (~40 blocks of
// recent outputs).
func (g *traceGen) youngWindow() int {
	w := len(g.pool) / 8
	if w < 1024 {
		w = 1024
	}
	return w
}

// sample picks a live, mature slot: 65% young, 35% uniform (the
// uniform share is what drains old blocks toward sparseness).
func (g *traceGen) sample(window, h, maturity int) int {
	n := len(g.pool)
	if g.live == 0 || n == 0 {
		return -1
	}
	for attempt := 0; attempt < 24; attempt++ {
		var i int
		if g.rng.Float64() < 0.65 {
			lo := n - window
			if lo < 0 {
				lo = 0
			}
			i = lo + g.rng.Intn(n-lo)
		} else {
			i = g.rng.Intn(n)
		}
		if g.dead[i] {
			continue
		}
		if int(g.pool[i]>>16)+maturity > h && g.pool[i]&0xFFFF == 0 {
			continue // position 0 stands in for the immature coinbase output
		}
		return i
	}
	return -1
}

func (g *traceGen) compactIfNeeded() {
	if len(g.pool) < 1<<16 || g.live*2 > len(g.pool) {
		return
	}
	pool := make([]uint64, 0, g.live)
	for i, p := range g.pool {
		if !g.dead[i] {
			pool = append(pool, p)
		}
	}
	g.pool = pool
	g.dead = make([]bool, len(pool))
}
