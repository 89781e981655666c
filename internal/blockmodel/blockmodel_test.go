package blockmodel

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"ebv/internal/hashx"
	"ebv/internal/merkle"
	"ebv/internal/txmodel"
)

func classicCoinbase(height uint64) *txmodel.Tx {
	return &txmodel.Tx{
		Inputs: []txmodel.TxIn{{
			PrevOut:      txmodel.OutPoint{Index: txmodel.CoinbaseIndex},
			UnlockScript: []byte{byte(height), byte(height >> 8), byte(height >> 16)},
		}},
		Outputs: []txmodel.TxOut{{Value: Subsidy(height), LockScript: []byte{0x51}}},
	}
}

func classicSpend(prev hashx.Hash, idx uint32, nOut int) *txmodel.Tx {
	tx := &txmodel.Tx{
		Inputs: []txmodel.TxIn{{PrevOut: txmodel.OutPoint{TxID: prev, Index: idx}, UnlockScript: []byte{1, 2}}},
	}
	for i := 0; i < nOut; i++ {
		tx.Outputs = append(tx.Outputs, txmodel.TxOut{Value: 1000, LockScript: []byte{0x51}})
	}
	return tx
}

func ebvCoinbase(height uint64) *txmodel.EBVTx {
	return &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Outputs:  []txmodel.TxOut{{Value: Subsidy(height), LockScript: []byte{0x51}}},
		LockTime: uint32(height),
	}}
}

func ebvSpend(nOut int, seed byte) *txmodel.EBVTx {
	tx := &txmodel.EBVTx{
		Bodies: []txmodel.InputBody{{
			Branch:       merkle.Branch{Index: 0},
			UnlockScript: []byte{seed},
			PrevTx: txmodel.TidyTx{
				Outputs: []txmodel.TxOut{{Value: 5000, LockScript: []byte{0x51}}},
			},
			Height:   1,
			RelIndex: 0,
		}},
	}
	for i := 0; i < nOut; i++ {
		tx.Tidy.Outputs = append(tx.Tidy.Outputs, txmodel.TxOut{Value: 100, LockScript: []byte{0x51}})
	}
	tx.SealInputHashes()
	return tx
}

func TestSubsidy(t *testing.T) {
	cases := map[uint64]uint64{
		0:       50 * Coin,
		209_999: 50 * Coin,
		210_000: 25 * Coin,
		420_000: 1250_000_000,
		630_000: 625_000_000,
	}
	for h, want := range cases {
		if got := Subsidy(h); got != want {
			t.Fatalf("Subsidy(%d)=%d want %d", h, got, want)
		}
	}
	if Subsidy(64*HalvingInterval) != 0 {
		t.Fatal("subsidy must hit zero")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Version: 2, Height: 590004,
		PrevBlock:  hashx.Sum([]byte("prev")),
		MerkleRoot: hashx.Sum([]byte("root")),
		TimeStamp:  1_560_000_000, Bits: 8, Nonce: 12345,
	}
	enc := h.Encode(nil)
	back, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("header round trip mismatch:\n%+v\n%+v", back, h)
	}
	if back.Hash() != h.Hash() {
		t.Fatal("header hash changed")
	}
	if _, err := DecodeHeader(enc[:10]); err == nil {
		t.Fatal("short header must fail")
	}
}

func TestPoWTarget(t *testing.T) {
	h := Header{Bits: 0}
	if !h.MeetsTarget() {
		t.Fatal("Bits=0 must disable PoW")
	}
	h.Bits = 8
	h.Mine()
	if !h.MeetsTarget() {
		t.Fatal("mined header must meet target")
	}
	if h.Hash()[0] != 0 {
		t.Fatal("8-bit target means first byte zero")
	}
}

func TestAssembleClassic(t *testing.T) {
	cb := classicCoinbase(1)
	sp := classicSpend(hashx.Sum([]byte("prev-tx")), 0, 2)
	b, err := AssembleClassic(hashx.Sum([]byte("prev-block")), 1, 1000, []*txmodel.Tx{cb, sp})
	if err != nil {
		t.Fatal(err)
	}
	if b.Header.MerkleRoot != merkle.Root([]hashx.Hash{cb.TxID(), sp.TxID()}) {
		t.Fatal("merkle root mismatch")
	}
	if b.TotalInputs() != 1 {
		t.Fatalf("TotalInputs=%d want 1 (coinbase excluded)", b.TotalInputs())
	}
	if b.TotalOutputs() != 3 {
		t.Fatalf("TotalOutputs=%d want 3", b.TotalOutputs())
	}
}

func TestAssembleClassicRequiresCoinbase(t *testing.T) {
	sp := classicSpend(hashx.Sum([]byte("x")), 0, 1)
	if _, err := AssembleClassic(hashx.ZeroHash, 1, 0, []*txmodel.Tx{sp}); err == nil {
		t.Fatal("non-coinbase first tx must fail")
	}
	if _, err := AssembleClassic(hashx.ZeroHash, 1, 0, nil); err == nil {
		t.Fatal("empty block must fail")
	}
}

func TestClassicBlockRoundTrip(t *testing.T) {
	cb := classicCoinbase(7)
	sp := classicSpend(hashx.Sum([]byte("p")), 1, 3)
	b, err := AssembleClassic(hashx.Sum([]byte("prev")), 7, 999, []*txmodel.Tx{cb, sp})
	if err != nil {
		t.Fatal(err)
	}
	enc := b.Encode(nil)
	back, err := DecodeClassicBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.Hash() != b.Header.Hash() {
		t.Fatal("header mismatch")
	}
	if len(back.Txs) != 2 || back.Txs[1].TxID() != sp.TxID() {
		t.Fatal("tx mismatch")
	}
	for _, cut := range []int{10, len(enc) - 1} {
		if _, err := DecodeClassicBlock(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d must pass error", cut)
		}
	}
	if _, err := DecodeClassicBlock(append(enc, 1)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestAssembleEBVAssignsStakePositions(t *testing.T) {
	cb := ebvCoinbase(2) // 1 output
	t1 := ebvSpend(3, 1) // 3 outputs
	t2 := ebvSpend(2, 2) // 2 outputs
	b, err := AssembleEBV(hashx.Sum([]byte("prev")), 2, 123, []*txmodel.EBVTx{cb, t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	wantPos := []uint32{0, 1, 4}
	for i, tx := range b.Txs {
		if tx.Tidy.StakePos != wantPos[i] {
			t.Fatalf("tx %d stake position %d, want %d", i, tx.Tidy.StakePos, wantPos[i])
		}
	}
	if err := b.CheckStakePositions(); err != nil {
		t.Fatal(err)
	}
	if b.TotalOutputs() != 6 {
		t.Fatalf("TotalOutputs=%d want 6", b.TotalOutputs())
	}
	if b.TotalInputs() != 2 {
		t.Fatalf("TotalInputs=%d want 2", b.TotalInputs())
	}
	// The Merkle root covers the stake positions: rebuilding with a
	// tampered position must change the root.
	root := b.Header.MerkleRoot
	b.Txs[1].Tidy.StakePos = 9
	b.Txs[1].Tidy.Invalidate() // in-place mutation after hashing
	if merkle.Root(b.TxLeaves()) == root {
		t.Fatal("root must commit to stake positions")
	}
	if err := b.CheckStakePositions(); err == nil {
		t.Fatal("tampered stake position must be detected")
	}
}

func TestAssembleEBVRejects(t *testing.T) {
	if _, err := AssembleEBV(hashx.ZeroHash, 1, 0, []*txmodel.EBVTx{ebvSpend(1, 1)}); err == nil {
		t.Fatal("first tx must be coinbase")
	}
	if _, err := AssembleEBV(hashx.ZeroHash, 1, 0, []*txmodel.EBVTx{ebvCoinbase(1), ebvCoinbase(1)}); err == nil {
		t.Fatal("second coinbase must fail")
	}
}

func TestEBVBlockRoundTrip(t *testing.T) {
	b, err := AssembleEBV(hashx.Sum([]byte("prev")), 3, 77, []*txmodel.EBVTx{ebvCoinbase(3), ebvSpend(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	enc := b.Encode(nil)
	back, err := DecodeEBVBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.Hash() != b.Header.Hash() {
		t.Fatal("header mismatch")
	}
	if err := back.CheckStakePositions(); err != nil {
		t.Fatal(err)
	}
	if back.Txs[1].Consistent() != nil {
		t.Fatal("bodies must survive the round trip")
	}
	if merkle.Root(back.TxLeaves()) != back.Header.MerkleRoot {
		t.Fatal("merkle root must verify after decode")
	}
	if _, err := DecodeEBVBlock(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncation must fail")
	}
}

func TestMerkleRootMatchesManualEBV(t *testing.T) {
	cb := ebvCoinbase(1)
	sp := ebvSpend(1, 9)
	b, err := AssembleEBV(hashx.ZeroHash, 1, 0, []*txmodel.EBVTx{cb, sp})
	if err != nil {
		t.Fatal(err)
	}
	manual := merkle.Root([]hashx.Hash{cb.Tidy.LeafHash(), sp.Tidy.LeafHash()})
	if b.Header.MerkleRoot != manual {
		t.Fatal("EBV merkle root must be over tidy leaf hashes")
	}
}

func TestPropertyStakePositionsAreOutputPrefixSums(t *testing.T) {
	f := func(counts []uint8) bool {
		txs := []*txmodel.EBVTx{ebvCoinbase(1)}
		for i, c := range counts {
			if i >= 20 {
				break
			}
			txs = append(txs, ebvSpend(int(c)%5+1, byte(i)))
		}
		b, err := AssembleEBV(hashx.ZeroHash, 1, 0, txs)
		if err != nil {
			return false
		}
		sum := uint32(0)
		for _, tx := range b.Txs {
			if tx.Tidy.StakePos != sum {
				return false
			}
			sum += uint32(len(tx.Tidy.Outputs))
		}
		return b.CheckStakePositions() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAssembleEBV(b *testing.B) {
	txs := []*txmodel.EBVTx{ebvCoinbase(1)}
	for i := 0; i < 500; i++ {
		txs = append(txs, ebvSpend(2, byte(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleEBV(hashx.ZeroHash, 1, 0, txs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAssembleEBVRejectsTooManyOutputs(t *testing.T) {
	// 17 transactions with 4096 outputs each exceed the 65536-output
	// cap that keeps positions within 16 bits.
	txs := []*txmodel.EBVTx{ebvCoinbase(1)}
	for i := 0; i < 17; i++ {
		tx := ebvSpend(0, byte(i))
		tx.Tidy.Outputs = make([]txmodel.TxOut, 4096)
		for j := range tx.Tidy.Outputs {
			tx.Tidy.Outputs[j] = txmodel.TxOut{Value: 1, LockScript: []byte{0x51}}
		}
		txs = append(txs, tx)
	}
	if _, err := AssembleEBV(hashx.ZeroHash, 1, 0, txs); err == nil {
		t.Fatal("output cap must be enforced")
	}
}

// TestTxCountBoundedByInput: a block body that claims the largest
// transaction count and carries none is refused before the decoder
// allocates room for the count.
func TestTxCountBoundedByInput(t *testing.T) {
	body := binary.AppendUvarint(make([]byte, HeaderSize), 1<<20)
	arena := &txmodel.Arena{}
	cases := map[string]func() error{
		"classic":      func() error { _, err := DecodeClassicBlock(body); return err },
		"ebv":          func() error { _, err := DecodeEBVBlock(body); return err },
		"ebv borrowed": func() error { var b EBVBlock; return DecodeEBVBlockInto(&b, body, arena) },
	}
	for name, decode := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count with no transactions decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: refusing a %d-byte body that claims 2^20 transactions allocated %d B", name, len(body), n)
		}
	}
}
