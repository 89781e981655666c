package mempool

import (
	"runtime"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// poolRecordBudget is the heap the pool may spend per admitted
// transaction beside its bytes: the 96-byte entry record, its spends
// slice, its slot in the entries map (the pool's one id index), one
// spent-index slot per input and its fee heap slot, with room for the
// maps' doubling. About 250 B is measured at this test's 170
// one-input transactions. A pool that kept a second, lock-free id
// index (a boxed 32-byte key and its node per entry) beside a 120-byte
// record holds about 440 B per transaction and fails the bound; one
// that kept each transaction's decoded object graph (about 1.9× its
// wire size) holds about 1 280 B per 411-byte transaction here.
const poolRecordBudget = 320

// TestPoolHoldsWireBytes pins what a pooled transaction costs: the
// live heap the pool adds per admitted transaction is at most its
// pool-form encoding rounded up to the allocator's size class, plus
// poolRecordBudget. The transactions reach Add freshly decoded, as
// admission hands them over, and the test drops them, so anything the
// pool retains of the decoded graph shows in the delta.
func TestPoolHoldsWireBytes(t *testing.T) {
	e := newEnv(t, 250)
	raws := e.spendFirstOutputs(t, 1_000)
	if len(raws) < 128 {
		t.Fatalf("only %d spendable outputs, want at least 128", len(raws))
	}
	budget := 0
	for _, raw := range raws {
		budget += sizeClass(len(raw)) + poolRecordBudget
	}

	pool := New(e.val, Config{})
	before := liveHeap()
	for _, raw := range raws {
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	held := int(liveHeap()) - int(before)
	runtime.KeepAlive(raws)
	if pool.Len() != len(raws) {
		t.Fatalf("pool holds %d of %d transactions", pool.Len(), len(raws))
	}
	t.Logf("%d transactions: pool holds %d B (%.0f B/tx), bound %d B (%.0f B/tx)",
		len(raws), held, float64(held)/float64(len(raws)), budget, float64(budget)/float64(len(raws)))
	if held > budget {
		t.Errorf("pool holds %d B for %d transactions, bound %d B (size-classed bytes + %d B/tx)",
			held, len(raws), budget, poolRecordBudget)
	}
	runtime.KeepAlive(pool)
}

// spendFirstOutputs encodes one signed spend, paying fee, of output 0
// of every stored transaction whose output 0 is unspent and mature.
func (e *env) spendFirstOutputs(t *testing.T, fee uint64) [][]byte {
	t.Helper()
	payee := e.gen.Scheme().KeyFromSeed([]byte("heap-payee"))
	var raws [][]byte
	for h := uint64(0); h < uint64(e.blocks); h++ {
		raw, err := e.chain.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		for ti, prev := range blk.Txs {
			if ti == 0 && h+txmodel.CoinbaseMaturity >= uint64(e.blocks) {
				continue
			}
			outs := prev.Tidy.Outputs
			if len(outs) == 0 || outs[0].Value <= fee {
				continue
			}
			if ok, err := e.status.IsUnspent(h, prev.Tidy.StakePos); err != nil || !ok {
				continue
			}
			body, err := e.builder.Prove(proof.Loc{Height: h, TxIndex: uint32(ti)}, 0)
			if err != nil {
				t.Fatal(err)
			}
			tx := &txmodel.EBVTx{
				Tidy: txmodel.TidyTx{Version: 1, Outputs: []txmodel.TxOut{{
					Value:      outs[0].Value - fee,
					LockScript: script.StandardLock(payee),
				}}},
				Bodies: []txmodel.InputBody{body},
			}
			key := e.gen.Scheme().KeyFromSeed(workload.KeySeed(h, uint32(ti), 0))
			unlock, err := script.StandardUnlock(key, tx.SigHash())
			if err != nil {
				t.Fatal(err)
			}
			tx.Bodies[0].UnlockScript = unlock
			tx.SealInputHashes()
			raws = append(raws, tx.Encode(nil))
		}
	}
	return raws
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sizeClass rounds n up to the allocator's size class, as MemStats
// reports the classes.
func sizeClass(n int) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, c := range ms.BySize {
		if int(c.Size) >= n {
			return int(c.Size)
		}
	}
	return n
}
