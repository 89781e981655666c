package core

import (
	"errors"
	"fmt"
	"testing"

	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// txCase is one submission of the transaction corpus: want is the
// sentinel the reference must reject it with, nil for an honest
// transaction.
type txCase struct {
	name string
	tx   *txmodel.EBVTx
	want error
}

// cloneTx deep-copies tx through its serialization.
func cloneTx(t testing.TB, tx *txmodel.EBVTx) *txmodel.EBVTx {
	t.Helper()
	cp, err := txmodel.DecodeEBVTx(tx.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// resign signs every input of a mutated tx afresh with the generator's
// key material and reseals its input hashes, so the mutation under
// test is the transaction's only flaw.
func resign(t testing.TB, f *fixture, tx *txmodel.EBVTx) {
	t.Helper()
	tx.Invalidate()
	sigHash := tx.SigHash()
	for bi := range tx.Bodies {
		body := &tx.Bodies[bi]
		txIdx := -1
		for i, prev := range f.ebv[body.Height].Txs {
			if prev.Tidy.LeafHash() == body.PrevTx.LeafHash() {
				txIdx = i
			}
		}
		if txIdx < 0 {
			t.Fatalf("input %d: spent transaction not found at height %d", bi, body.Height)
		}
		unlock, err := f.gen.Resign(body.Height, uint32(txIdx), body.RelIndex, sigHash)
		if err != nil {
			t.Fatal(err)
		}
		body.UnlockScript = unlock
	}
	tx.SealInputHashes()
}

// txCorpus builds the admission corpus at the fixture's next height:
// every honest spend of the last block plus one submission per
// rejection path, each reaching the check it names.
func txCorpus(t *testing.T, f *fixture) []txCase {
	t.Helper()
	var spends []*txmodel.EBVTx
	for _, tx := range f.lastEBV.Txs[1:] {
		if len(tx.Bodies) > 0 && len(tx.Bodies[0].UnlockScript) > 10 && len(tx.Bodies[0].Branch.Siblings) > 0 {
			spends = append(spends, tx)
		}
	}
	if len(spends) < 2 {
		t.Skipf("need >= 2 spending txs in the last block, have %d", len(spends))
	}
	var spentBody *txmodel.InputBody // spent by the parent block
	for _, tx := range f.ebv[len(f.ebv)-2].Txs[1:] {
		if len(tx.Bodies) > 0 {
			spentBody = &tx.Bodies[0]
			break
		}
	}
	if spentBody == nil {
		t.Skip("parent block spends nothing")
	}
	mutate := func(fn func(tx *txmodel.EBVTx)) *txmodel.EBVTx {
		tx := cloneTx(t, spends[0])
		fn(tx)
		return tx
	}
	b0 := spends[0].Bodies[0]
	b1 := spends[1].Bodies[0]
	wide := make([]txmodel.InputBody, 9)
	for i := range wide {
		wide[i] = b0
	}

	cases := []txCase{
		{"standalone-coinbase", cloneTx(t, f.lastEBV.Txs[0]), ErrStandaloneCoinbase},
		{"body-hash-mismatch", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0].Height++ // not resealed: consistency must fail
			tx.Invalidate()
		}), ErrBadProof},
		{"duplicate-input", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies = []txmodel.InputBody{b0, b0}
			resign(t, f, tx)
		}), ErrDuplicateSpend},
		{"duplicate-input-wide", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies = wide
			resign(t, f, tx)
		}), ErrDuplicateSpend},
		{"unknown-height", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0].Height = 999_999
			tx.SealInputHashes()
		}), ErrMissingOutput},
		{"shifted-height", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0].Height++
			tx.SealInputHashes()
		}), ErrMissingOutput},
		{"tampered-branch", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0].Branch.Siblings[0][0] ^= 1
			tx.SealInputHashes()
		}), ErrMissingOutput},
		{"rel-index-out-of-range", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0].RelIndex = 60000
			tx.SealInputHashes()
		}), ErrBadProof},
		{"spent-output", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0] = *spentBody
			tx.SealInputHashes()
		}), ErrSpentOutput},
		{"bad-signature", mutate(func(tx *txmodel.EBVTx) {
			tx.Bodies[0].UnlockScript[5] ^= 1
			tx.SealInputHashes()
		}), ErrScriptFailed},
		{"immature-spend", craftImmatureCoinbaseSpend(t, f).Txs[1], ErrImmature},
		{"output-overflow", mutate(func(tx *txmodel.EBVTx) {
			lock := tx.Tidy.Outputs[0].LockScript
			tx.Tidy.Outputs = []txmodel.TxOut{{Value: txmodel.MaxValue, LockScript: lock}, {Value: txmodel.MaxValue, LockScript: lock}}
			resign(t, f, tx)
		}), ErrOverflow},
		{"value-imbalance", mutate(func(tx *txmodel.EBVTx) {
			in, _ := tx.InputSum()
			tx.Tidy.Outputs = []txmodel.TxOut{{Value: in + 1, LockScript: tx.Tidy.Outputs[0].LockScript}}
			resign(t, f, tx)
		}), ErrValueImbalance},
		{"ev-fails-before-valid-inputs", mutate(func(tx *txmodel.EBVTx) {
			bad := b0
			bad.Branch.Siblings = append([]hashx.Hash(nil), b0.Branch.Siblings...)
			bad.Branch.Siblings[0][0] ^= 1
			tx.Bodies = []txmodel.InputBody{bad, b1}
			resign(t, f, tx)
		}), ErrMissingOutput},
	}
	for i, tx := range spends {
		cases = append(cases, txCase{fmt.Sprintf("honest-%d", i), cloneTx(t, tx), nil})
	}
	return cases
}

// TestTxBatchMatchesReference pins transaction admission to the
// reference model: over the corpus, ValidateTx and one mixed
// ValidateTxsBatch must report exactly refValidateTx's verdicts, error
// text included, at one worker and at four, with the verified-proof
// cache off, cold, and warmed from the last block. Along the way it
// pins the cache's admission contract: a first successful check
// misses and inserts every input, a repeat hits, and a transaction
// rejected by its first input's EV or SV inserts nothing.
func TestTxBatchMatchesReference(t *testing.T) {
	f := newFixture(t, 150)
	ref := refFixture(t, f)
	cases := txCorpus(t, f)
	want := make([]error, len(cases))
	txs := make([]*txmodel.EBVTx, len(cases))
	for i, c := range cases {
		want[i] = refValidateTx(ref, c.tx)
		txs[i] = c.tx
		if c.want == nil && want[i] != nil {
			t.Fatalf("%s: reference rejects an honest transaction: %v", c.name, want[i])
		}
		if c.want != nil && !errors.Is(want[i], c.want) {
			t.Fatalf("%s: reference verdict %v, want %v", c.name, want[i], c.want)
		}
	}

	for _, workers := range []int{1, 4} {
		for _, cache := range []string{"off", "cold", "warmed"} {
			t.Run(fmt.Sprintf("workers=%d/cache=%s", workers, cache), func(t *testing.T) {
				var opts []EBVOption
				if cache != "off" {
					opts = append(opts, WithVerificationCache(vcache.New(0)))
				}
				v, _ := syncedEBV(t, f, opts...)
				if cache == "warmed" {
					warmFromMempool(t, v, f.lastEBV)
				}
				for i, c := range cases {
					var before vcache.Stats
					if v.Cache() != nil {
						before = v.Cache().Stats()
					}
					sameVerdict(t, "ValidateTx "+c.name, want[i], v.ValidateTx(c.tx))
					if v.Cache() == nil {
						continue
					}
					after := v.Cache().Stats()
					inputs := uint64(len(c.tx.Bodies))
					switch {
					case c.want == nil && cache == "cold":
						if after.Misses-before.Misses != inputs || after.Size-before.Size != len(c.tx.Bodies) {
							t.Fatalf("%s: first check must miss and insert every input: %+v -> %+v", c.name, before, after)
						}
						if err := v.ValidateTx(c.tx); err != nil {
							t.Fatal(err)
						}
						if again := v.Cache().Stats(); again.Hits-after.Hits != inputs {
							t.Fatalf("%s: repeat check must hit every input: %+v -> %+v", c.name, after, again)
						}
					case c.want == nil:
						if after.Hits-before.Hits != inputs {
							t.Fatalf("%s: warmed check must hit every input: %+v -> %+v", c.name, before, after)
						}
					case errors.Is(c.want, ErrMissingOutput), errors.Is(c.want, ErrScriptFailed),
						errors.Is(c.want, ErrBadProof), errors.Is(c.want, ErrStandaloneCoinbase):
						if after.Size != before.Size {
							t.Fatalf("%s: rejected check inserted %d keys", c.name, after.Size-before.Size)
						}
					}
				}
				errs := v.ValidateTxsBatch(txs, workers, ingest.NewScratch())
				for i, c := range cases {
					sameVerdict(t, "batch "+c.name, want[i], errs[i])
				}
			})
		}
	}
}
