package admission

import (
	"fmt"
	"testing"

	"ebv/internal/chainstore"
	"ebv/internal/core"
	"ebv/internal/mempool"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// env is a synced EBV validator with a proof builder and key access —
// the fixture behind the equivalence gate.
type env struct {
	gen     *workload.Generator
	chain   *chainstore.Store
	status  *statusdb.DB
	val     *core.EBVValidator
	builder *proof.Builder
	blocks  int
}

func newEnv(t *testing.T, blocks int) *env {
	t.Helper()
	e := &env{blocks: blocks}
	e.gen = workload.NewGenerator(workload.TestParams(blocks))
	im, err := proof.NewIntermediary(t.TempDir(), e.gen.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	e.chain, err = chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.chain.Close() })
	e.status = statusdb.New()
	e.val = core.NewEBVValidator(e.status, script.NewEngine(e.gen.Scheme()), e.chain)
	for !e.gen.Done() {
		cb, err := e.gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := im.ProcessBlock(cb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.val.ConnectBlock(eb); err != nil {
			t.Fatal(err)
		}
		if err := e.chain.Append(eb.Header, eb.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	e.builder = proof.NewBuilder(e.chain, 16)
	return e
}

// spendCoinbaseAt builds a signed spend of the coinbase at height h.
func (e *env) spendCoinbaseAt(t *testing.T, h uint64, fee uint64) *txmodel.EBVTx {
	t.Helper()
	body, err := e.builder.Prove(proof.Loc{Height: h, TxIndex: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	payee := e.gen.Scheme().KeyFromSeed([]byte("eq-payee"))
	tx := &txmodel.EBVTx{
		Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
			Value:      body.PrevTx.Outputs[0].Value - fee,
			LockScript: script.StandardLock(payee),
		}}},
		Bodies: []txmodel.InputBody{body},
	}
	key := e.gen.Scheme().KeyFromSeed(workload.KeySeed(h, 0, 0))
	unlock, err := script.StandardUnlock(key, tx.SigHash())
	if err != nil {
		t.Fatal(err)
	}
	tx.Bodies[0].UnlockScript = unlock
	tx.SealInputHashes()
	return tx
}

// unspentCoinbases returns heights of mature unspent coinbases.
func (e *env) unspentCoinbases(t *testing.T, want int) []uint64 {
	t.Helper()
	var hs []uint64
	for h := uint64(0); h+100 < uint64(e.blocks) && len(hs) < want; h++ {
		if ok, err := e.status.IsUnspent(h, 0); err == nil && ok {
			hs = append(hs, h)
		}
	}
	if len(hs) < want {
		t.Skipf("only %d unspent coinbases at this scale, want %d", len(hs), want)
	}
	return hs
}

// adversarialCorpus builds the submission stream the gate replays:
// valid spends interleaved with duplicates, conflicts, a bad
// signature, a corrupted proof, an immature coinbase spend, an
// already-spent output, a below-floor fee, and undecodable bytes.
// Returns the raws and the static floor that splits the fee range.
func (e *env) adversarialCorpus(t *testing.T) ([][]byte, float64) {
	t.Helper()
	hs := e.unspentCoinbases(t, 5)

	valid1 := e.spendCoinbaseAt(t, hs[0], 6_000)
	valid2 := e.spendCoinbaseAt(t, hs[1], 7_000)
	valid3 := e.spendCoinbaseAt(t, hs[2], 8_000)
	conflict := e.spendCoinbaseAt(t, hs[0], 9_000) // same outpoint as valid1

	// Bad signature: corrupt the unlock script, then re-seal so the
	// failure lands in SV (not proof consistency).
	badsig := e.spendCoinbaseAt(t, hs[3], 6_500)
	badsig.Bodies[0].UnlockScript[0] ^= 0xff
	badsig.SealInputHashes()

	// Bad proof: perturb the proved previous transaction, re-seal — the
	// leaf hash no longer folds to the committed Merkle root, so EV
	// fails whatever the branch shape.
	badproof := e.spendCoinbaseAt(t, hs[4], 6_600)
	badproof.Bodies[0].PrevTx.Outputs[0].Value++
	badproof.SealInputHashes()

	// Low fee, below the static floor chosen between it and the valid
	// transactions' fee rates.
	lowfee := e.spendCoinbaseAt(t, hs[3], 10)
	lowRate := float64(10) / float64(lowfee.EncodedSize())
	minValidRate := float64(6_000) / float64(valid1.EncodedSize()+512)
	if lowRate*4 >= minValidRate {
		t.Fatalf("fee rates not separable: low %g vs valid %g", lowRate, minValidRate)
	}
	floor := lowRate * 2

	// Immature: an unspendable-yet coinbase near the tip (it cannot
	// have been spent, maturity forbids it).
	immature := e.spendCoinbaseAt(t, uint64(e.blocks)-2, 5_000)

	// Already spent: a mature coinbase the workload consumed.
	var spentRaw []byte
	for h := uint64(0); h+100 < uint64(e.blocks); h++ {
		if ok, err := e.status.IsUnspent(h, 0); err == nil && !ok {
			spentRaw = e.spendCoinbaseAt(t, h, 5_500).Encode(nil)
			break
		}
	}

	corpus := [][]byte{
		valid1.Encode(nil),
		{0xde, 0xad, 0xbe, 0xef}, // malformed
		badsig.Encode(nil),
		valid2.Encode(nil),
		conflict.Encode(nil),
		valid2.Encode(nil), // duplicate of an admitted tx
		lowfee.Encode(nil),
		badproof.Encode(nil),
		immature.Encode(nil),
	}
	if spentRaw != nil {
		corpus = append(corpus, spentRaw)
	}
	corpus = append(corpus, valid3.Encode(nil))
	return corpus, floor
}

// sequentialVerdicts replays the corpus through one-at-a-time
// mempool.Add — the reference the batched pipeline must match.
// Intake-stage wraps (malformed) are replicated exactly as the
// service produces them.
func sequentialVerdicts(val *core.EBVValidator, corpus [][]byte, cfg mempool.Config) []string {
	pool := mempool.New(val, cfg)
	out := make([]string, len(corpus))
	for i, raw := range corpus {
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			out[i] = fmt.Errorf("%w: %v", ErrMalformed, err).Error()
			continue
		}
		if _, err := pool.Add(tx); err != nil {
			out[i] = err.Error()
		}
	}
	return out
}

// TestEquivalenceGate is the acceptance gate: for an adversarial
// submission stream, the batched admission pipeline must produce the
// same verdict — same error text, same wire code — for every
// transaction as sequential Mempool.Add calls in the same order,
// across a batch-size × worker sweep.
func TestEquivalenceGate(t *testing.T) {
	e := newEnv(t, 250)
	corpus, floor := e.adversarialCorpus(t)
	poolCfg := mempool.Config{MinFeeRate: floor}
	want := sequentialVerdicts(e.val, corpus, poolCfg)

	arms := []struct{ batch, workers int }{
		{1, 1}, {2, 1}, {4, 3}, {64, 8},
	}
	for _, arm := range arms {
		t.Run(fmt.Sprintf("batch%d_workers%d", arm.batch, arm.workers), func(t *testing.T) {
			pool := mempool.New(e.val, poolCfg)
			svc := New(&EBVBackend{Pool: pool, Validator: e.val}, Config{
				BatchSize:  arm.batch,
				Workers:    arm.workers,
				QueueDepth: len(corpus) + 1,
			})
			got := make([]string, len(corpus))
			codes := make([]byte, len(corpus))
			done := make(chan struct{}, len(corpus))
			for i, raw := range corpus {
				i := i
				svc.SubmitAsync("gate", raw, func(r Result) {
					if r.Err != nil {
						got[i] = r.Err.Error()
					}
					codes[i] = r.Code
					done <- struct{}{}
				})
			}
			for range corpus {
				<-done
			}
			svc.Close()

			for i := range corpus {
				if got[i] != want[i] {
					t.Errorf("tx %d: batched verdict %q != sequential %q", i, got[i], want[i])
				}
				if (codes[i] == CodeOK) != (want[i] == "") {
					t.Errorf("tx %d: code %d disagrees with verdict %q", i, codes[i], want[i])
				}
			}
		})
	}
}
