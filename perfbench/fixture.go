package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/loadgen"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// Fixture shape. The base chain is the generator's mainnet-model
// history, larger than the quick preset's; fan-out blocks appended on
// top turn base outputs into enough independent coins that tx_submit
// and tip_relay never reuse a spend within the verified-proof cache's
// reach — a reused spend would hit the cache and measure the warm path
// instead of admission.
const (
	baseBlocks   = 3000
	baseTxScale  = 0.02
	fanOutputs   = 8   // outputs per fan-out transaction
	fanTxsPerBlk = 250 // fan-out transactions per appended block
	fanTxs       = 15_000
	spendFee     = 1_000
)

// fixture is one seeded EBV chain plus the spends built from it.
type fixture struct {
	chainDir string
	spends   [][]byte // one signed single-input spend per fan-out coin, chain order
	unspent  int64    // ground-truth unspent-output count at the tip
	inputs   int      // inputs the whole chain connects
	tip      hashx.Hash
	print    string // fingerprint: hash over the tip hash and shape
	cached   bool   // the chain came from the fixture cache
	genTime  time.Duration
}

// The fixture cache keeps generated chains between runs in one
// directory, keyed by the seed and a digest of every Go source file:
// the same seed gives the same chain, and a chain is never used by code
// other than the code that generated it. The spends are rebuilt from
// the chain in every run. Generation (about ten seconds) dominates a
// run's fixed cost; the cache keeps the fixtureCacheKeep most recently
// used chains (about 80 MB each).
const (
	fixtureCacheDir  = ".bench_build/perfbench/fixtures"
	fixtureCacheKeep = 12
)

// fixtureMeta is a cached chain's ground truth.
type fixtureMeta struct {
	Tip     string `json:"tip"`
	Blocks  int    `json:"blocks"`
	Inputs  int    `json:"inputs"`
	Unspent int64  `json:"unspent"`
}

// loadFixture returns the fixture for seed, generating its chain unless
// the cache holds it for this source digest.
func loadFixture(seed int64, digest string) (*fixture, error) {
	start := time.Now()
	if err := os.MkdirAll(fixtureCacheDir, 0o755); err != nil {
		return nil, err
	}
	dir := filepath.Join(fixtureCacheDir, fmt.Sprintf("%s-seed%d", digest, seed))
	meta, err := readMeta(dir)
	cached := err == nil
	if !cached {
		if meta, err = generateChain(dir, seed); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	os.Chtimes(dir, now, now) // recency for pruning
	pruneFixtures()

	f := &fixture{chainDir: filepath.Join(dir, "chain"), inputs: meta.Inputs, unspent: meta.Unspent, cached: cached}
	chain, err := chainstore.Open(f.chainDir)
	if err != nil {
		return nil, err
	}
	defer chain.Close()
	f.tip = chain.TipHash()
	if chain.Count() != meta.Blocks || hex.EncodeToString(f.tip[:]) != meta.Tip {
		return nil, fmt.Errorf("fixture: cached chain %s does not match its record; delete it", dir)
	}
	if f.spends, err = fanOutSpends(chain); err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(f.tip[:])
	fmt.Fprintf(h, "%d/%g/%d/%d/%d", baseBlocks, baseTxScale, fanOutputs, fanTxs, len(f.spends))
	f.print = hex.EncodeToString(h.Sum(nil)[:8])
	f.genTime = time.Since(start)
	return f, nil
}

func readMeta(dir string) (fixtureMeta, error) {
	var m fixtureMeta
	b, err := os.ReadFile(filepath.Join(dir, "fixture.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// generateChain builds the chain for seed in a scratch directory and
// moves it to dir once complete, so a cached chain is always whole.
func generateChain(dir string, seed int64) (fixtureMeta, error) {
	var m fixtureMeta
	tmp, err := os.MkdirTemp(fixtureCacheDir, "tmp-")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(tmp)
	p := workload.DefaultParams()
	p.Blocks = baseBlocks
	p.TxScale = baseTxScale
	p.Seed = seed
	gen := workload.NewGenerator(p)
	im, err := proof.NewIntermediary(tmp, gen.Resign)
	if err != nil {
		return m, err
	}
	chain := im.Chain()
	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err == nil {
			_, err = im.ProcessBlock(cb)
		}
		if err != nil {
			im.Close()
			return m, err
		}
	}
	m.Inputs, m.Unspent = gen.TotalInputs, int64(gen.UTXOCount())
	if err := appendFanOut(chain, &m); err != nil {
		im.Close()
		return m, err
	}
	tip := chain.TipHash()
	m.Tip, m.Blocks = hex.EncodeToString(tip[:]), chain.Count()
	if err := im.Close(); err != nil {
		return m, err
	}
	// Only the chain is kept; the intermediary's location index is not
	// needed once the conversion is done.
	if err := os.RemoveAll(filepath.Join(tmp, "txindex")); err != nil {
		return m, err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return m, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), b, 0o644); err != nil {
		return m, err
	}
	return m, os.Rename(tmp, dir)
}

// pruneFixtures removes all but the fixtureCacheKeep most recently used
// cached chains, and scratch directories an interrupted generation left
// behind.
func pruneFixtures() {
	entries, err := os.ReadDir(fixtureCacheDir)
	if err != nil {
		return
	}
	type cached struct {
		name string
		mod  time.Time
	}
	var all []cached
	for _, e := range entries {
		info, err := e.Info()
		switch {
		case err != nil || !e.IsDir():
		case strings.HasPrefix(e.Name(), "tmp-"):
			if time.Since(info.ModTime()) > time.Hour {
				os.RemoveAll(filepath.Join(fixtureCacheDir, e.Name()))
			}
		default:
			all = append(all, cached{e.Name(), info.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.After(all[j].mod) })
	for i := fixtureCacheKeep; i < len(all); i++ {
		os.RemoveAll(filepath.Join(fixtureCacheDir, all[i].name))
	}
}

// fanKey is the key of the fan-out output at (height, tx, out): the
// generator's coordinate-derived scheme, so loadgen.Prepare re-signs
// fan-out coins exactly as it does base-chain coins.
func fanKey(height uint64, txIdx, outIdx uint32) sig.PrivateKey {
	return sig.SimSig{}.KeyFromSeed(workload.KeySeed(height, txIdx, outIdx))
}

// appendFanOut mines fanTxs transactions, each splitting one unspent
// base-chain output into fanOutputs coins, in blocks of fanTxsPerBlk
// on top of chain, and updates m's ground truth.
func appendFanOut(chain *chainstore.Store, m *fixtureMeta) error {
	var coins []coin
	coins, err := unspentCoins(chain, fanTxs)
	if err != nil {
		return err
	}
	if len(coins) < fanTxs {
		return fmt.Errorf("fixture: %d spendable base outputs, fan-out needs %d", len(coins), fanTxs)
	}
	builder := proof.NewBuilder(chain, 64)
	for len(coins) > 0 {
		n := min(fanTxsPerBlk, len(coins))
		tip, _ := chain.TipHeight()
		height := tip + 1
		txs := make([]*txmodel.EBVTx, 0, n+1)
		txs = append(txs, &txmodel.EBVTx{Tidy: txmodel.TidyTx{
			Outputs: []txmodel.TxOut{{
				Value:      blockmodel.Subsidy(height) + uint64(n)*spendFee,
				LockScript: script.StandardLock(fanKey(height, 0, 0)),
			}},
			LockTime: uint32(height),
		}})
		for i, c := range coins[:n] {
			body, err := builder.Prove(proof.Loc{Height: c.height, TxIndex: c.txIdx}, c.outIdx)
			if err != nil {
				return fmt.Errorf("fixture: prove fan-out input: %w", err)
			}
			val := body.PrevTx.Outputs[c.outIdx].Value - spendFee
			tx := &txmodel.EBVTx{Tidy: txmodel.TidyTx{Version: 1}, Bodies: []txmodel.InputBody{body}}
			for o := 0; o < fanOutputs; o++ {
				v := val / fanOutputs
				if o == 0 {
					v += val % fanOutputs
				}
				tx.Tidy.Outputs = append(tx.Tidy.Outputs, txmodel.TxOut{
					Value:      v,
					LockScript: script.StandardLock(fanKey(height, uint32(i+1), uint32(o))),
				})
			}
			key := sig.SimSig{}.KeyFromSeed(workload.KeySeed(c.height, c.txIdx, c.outIdx))
			unlock, err := script.StandardUnlock(key, tx.SigHash())
			if err != nil {
				return err
			}
			tx.Bodies[0].UnlockScript = unlock
			tx.SealInputHashes()
			txs = append(txs, tx)
		}
		blk, err := blockmodel.AssembleEBV(chain.TipHash(), height, 0, txs)
		if err != nil {
			return err
		}
		if err := chain.Append(blk.Header, blk.Encode(nil)); err != nil {
			return err
		}
		coins = coins[n:]
		m.Inputs += n
		m.Unspent += int64(1 + n*(fanOutputs-1))
	}
	return nil
}

// fanOutSpends returns a signed, proved single-input spend of every
// fan-out coin. loadgen.Prepare lists spends in chain order, so the
// base chain's leftover coins come first and are dropped: their
// spends carry previous transactions of every size the generator
// draws, which would make the load's transaction sizes depend on the
// seed. Fan-out spends are all alike.
func fanOutSpends(chain *chainstore.Store) ([][]byte, error) {
	all, err := loadgen.Prepare(chain, sig.SimSig{}, 0, spendFee)
	if err != nil {
		return nil, err
	}
	want := fanTxs * fanOutputs
	if len(all) < want {
		return nil, fmt.Errorf("fixture: %d spends, want %d fan-out spends", len(all), want)
	}
	spends := all[len(all)-want:]
	first, err := txmodel.DecodeEBVTx(spends[0])
	if err != nil {
		return nil, err
	}
	if first.Bodies[0].Height < baseBlocks {
		return nil, fmt.Errorf("fixture: spend of base coin at height %d among fan-out spends", first.Bodies[0].Height)
	}
	return spends, nil
}

// coin is one unspent base-chain output by its creation coordinates.
type coin struct {
	height        uint64
	txIdx, outIdx uint32
}

// unspentCoins returns up to want mature unspent outputs worth splitting
// into fanOutputs coins that each still pay spendFee, in chain order.
func unspentCoins(chain *chainstore.Store, want int) ([]coin, error) {
	type pos struct {
		height uint64
		pos    uint32
	}
	blocks := uint64(chain.Count())
	spent := make(map[pos]bool)
	var cands []coin
	var cpos []pos
	for h := uint64(0); h < blocks; h++ {
		raw, err := chain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return nil, err
		}
		for ti, tx := range blk.Txs {
			for i := range tx.Bodies {
				spent[pos{tx.Bodies[i].Height, tx.Bodies[i].AbsPosition()}] = true
			}
			if tx.Tidy.IsCoinbase() && h+txmodel.CoinbaseMaturity >= blocks {
				continue
			}
			for oi, out := range tx.Tidy.Outputs {
				if out.Value <= (fanOutputs+1)*spendFee*2 {
					continue
				}
				cands = append(cands, coin{h, uint32(ti), uint32(oi)})
				cpos = append(cpos, pos{h, tx.Tidy.StakePos + uint32(oi)})
			}
		}
	}
	var out []coin
	for i, c := range cands {
		if len(out) == want {
			break
		}
		if !spent[cpos[i]] {
			out = append(out, c)
		}
	}
	return out, nil
}
