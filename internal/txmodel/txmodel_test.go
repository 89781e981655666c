package txmodel

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ebv/internal/hashx"
	"ebv/internal/merkle"
)

func sampleClassic() *Tx {
	return &Tx{
		Version: 1,
		Inputs: []TxIn{
			{PrevOut: OutPoint{TxID: hashx.Sum([]byte("a")), Index: 0}, UnlockScript: []byte{1, 0xAA}},
			{PrevOut: OutPoint{TxID: hashx.Sum([]byte("b")), Index: 3}, UnlockScript: []byte{2, 0xBB, 0xCC}},
		},
		Outputs: []TxOut{
			{Value: 5000, LockScript: []byte{0x51}},
			{Value: 7000, LockScript: []byte{0x52}},
		},
		LockTime: 42,
	}
}

func sampleTidy() TidyTx {
	return TidyTx{
		Version:     1,
		InputHashes: []hashx.Hash{hashx.Sum([]byte("in0")), hashx.Sum([]byte("in1"))},
		Outputs: []TxOut{
			{Value: 100, LockScript: []byte{0x51, 0x52}},
			{Value: 200, LockScript: []byte{0x53}},
		},
		LockTime: 7,
		StakePos: 19,
	}
}

func sampleBody() InputBody {
	return InputBody{
		Branch: merkle.Branch{
			Index:    4,
			Siblings: []hashx.Hash{hashx.Sum([]byte("s0")), hashx.Sum([]byte("s1"))},
		},
		UnlockScript: []byte{9, 8, 7},
		PrevTx:       sampleTidy(),
		Height:       590004,
		RelIndex:     1,
	}
}

func TestClassicRoundTrip(t *testing.T) {
	tx := sampleClassic()
	enc := tx.Encode(nil)
	if len(enc) != tx.EncodedSize() {
		t.Fatalf("EncodedSize %d != len %d", tx.EncodedSize(), len(enc))
	}
	back, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Encode(nil), enc) {
		t.Fatal("round trip not canonical")
	}
	if back.TxID() != tx.TxID() {
		t.Fatal("txid changed across round trip")
	}
}

func TestClassicDecodeRejects(t *testing.T) {
	tx := sampleClassic()
	enc := tx.Encode(nil)
	if _, err := DecodeTx(enc[:len(enc)-1]); !errors.Is(err, ErrDecode) {
		t.Fatalf("truncated: %v", err)
	}
	if _, err := DecodeTx(append(enc, 0)); !errors.Is(err, ErrDecode) {
		t.Fatalf("trailing bytes: %v", err)
	}
	if _, err := DecodeTx(nil); !errors.Is(err, ErrDecode) {
		t.Fatalf("empty: %v", err)
	}
}

func TestClassicValueLimit(t *testing.T) {
	tx := &Tx{Outputs: []TxOut{{Value: MaxValue + 1}}}
	if _, err := DecodeTx(tx.Encode(nil)); !errors.Is(err, ErrDecode) {
		t.Fatalf("excess value must be rejected: %v", err)
	}
}

func TestCoinbaseDetection(t *testing.T) {
	cb := &Tx{Inputs: []TxIn{{PrevOut: OutPoint{Index: CoinbaseIndex}}}, Outputs: []TxOut{{Value: 50}}}
	if !cb.IsCoinbase() {
		t.Fatal("null prevout must be coinbase")
	}
	if sampleClassic().IsCoinbase() {
		t.Fatal("regular tx must not be coinbase")
	}
	tidyCB := TidyTx{Outputs: []TxOut{{Value: 50}}}
	if !tidyCB.IsCoinbase() {
		t.Fatal("tidy tx with no inputs must be coinbase")
	}
	if st := sampleTidy(); st.IsCoinbase() {
		t.Fatal("tidy tx with inputs must not be coinbase")
	}
}

func TestOutPointKeyRoundTrip(t *testing.T) {
	o := OutPoint{TxID: hashx.Sum([]byte("x")), Index: 77}
	k := o.Key()
	back, err := OutPointFromKey(k[:])
	if err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Fatal("outpoint key round trip mismatch")
	}
	if _, err := OutPointFromKey(k[:35]); err == nil {
		t.Fatal("short key must fail")
	}
}

func TestClassicSigHashExcludesUnlock(t *testing.T) {
	a := sampleClassic()
	b := sampleClassic()
	b.Inputs[0].UnlockScript = []byte{0xDE, 0xAD}
	if a.SigHash() != b.SigHash() {
		t.Fatal("sighash must not depend on unlocking scripts")
	}
	if a.TxID() == b.TxID() {
		t.Fatal("txid must depend on unlocking scripts")
	}
	c := sampleClassic()
	c.Outputs[0].Value++
	if a.SigHash() == c.SigHash() {
		t.Fatal("sighash must depend on outputs")
	}
	d := sampleClassic()
	d.Inputs[0].PrevOut.Index++
	if a.SigHash() == d.SigHash() {
		t.Fatal("sighash must depend on outpoints")
	}
}

func TestTidyRoundTrip(t *testing.T) {
	tt := sampleTidy()
	enc := tt.Encode(nil)
	if len(enc) != tt.EncodedSize() {
		t.Fatalf("EncodedSize %d != len %d", tt.EncodedSize(), len(enc))
	}
	back, err := DecodeTidyTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.LeafHash() != tt.LeafHash() {
		t.Fatal("leaf hash changed across round trip")
	}
	if back.StakePos != tt.StakePos {
		t.Fatal("stake position lost")
	}
}

func TestLeafHashCoversStakePos(t *testing.T) {
	a := sampleTidy()
	b := sampleTidy()
	b.StakePos++
	if a.LeafHash() == b.LeafHash() {
		t.Fatal("leaf hash must commit to the stake position")
	}
}

func TestBodyRoundTrip(t *testing.T) {
	b := sampleBody()
	enc := b.Encode(nil)
	if len(enc) != b.EncodedSize() {
		t.Fatalf("EncodedSize %d != len %d", b.EncodedSize(), len(enc))
	}
	r := &reader{data: enc}
	var back InputBody
	decodeBodyInto(&back, r)
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != b.Hash() {
		t.Fatal("body hash changed across round trip")
	}
	if back.AbsPosition() != b.AbsPosition() {
		t.Fatal("absolute position changed")
	}
}

func TestAbsPosition(t *testing.T) {
	b := sampleBody()
	if got := b.AbsPosition(); got != 19+1 {
		t.Fatalf("AbsPosition=%d want 20", got)
	}
	out, ok := b.SpentOutput()
	if !ok || out.Value != 200 {
		t.Fatalf("SpentOutput=%v,%v", out, ok)
	}
	b.RelIndex = 9
	if _, ok := b.SpentOutput(); ok {
		t.Fatal("out-of-range rel index must fail")
	}
}

func buildEBVTx(t *testing.T) *EBVTx {
	t.Helper()
	tx := &EBVTx{
		Tidy: TidyTx{
			Version:  1,
			Outputs:  []TxOut{{Value: 250, LockScript: []byte{0x51}}},
			LockTime: 0,
		},
		Bodies: []InputBody{sampleBody()},
	}
	tx.SealInputHashes()
	return tx
}

func TestEBVTxRoundTrip(t *testing.T) {
	tx := buildEBVTx(t)
	if err := tx.Consistent(); err != nil {
		t.Fatal(err)
	}
	enc := tx.Encode(nil)
	if len(enc) != tx.EncodedSize() {
		t.Fatalf("EncodedSize %d != len %d", tx.EncodedSize(), len(enc))
	}
	back, err := DecodeEBVTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Consistent(); err != nil {
		t.Fatal(err)
	}
	if back.Tidy.LeafHash() != tx.Tidy.LeafHash() {
		t.Fatal("leaf hash mismatch after round trip")
	}
}

func TestEBVConsistencyDetectsTamper(t *testing.T) {
	tx := buildEBVTx(t)
	tx.Bodies[0].Height++
	if err := tx.Consistent(); err == nil {
		t.Fatal("tampered body must break consistency")
	}
	tx = buildEBVTx(t)
	tx.Bodies = nil
	if err := tx.Consistent(); err == nil {
		t.Fatal("missing bodies must break consistency")
	}
}

func TestEBVSigHashProperties(t *testing.T) {
	a := buildEBVTx(t)
	b := buildEBVTx(t)
	// Unlocking script changes must not affect the sighash (no
	// circularity), but must change the input hash.
	b.Bodies[0].UnlockScript = []byte{0xFF}
	if a.SigHash() != b.SigHash() {
		t.Fatal("sighash must not depend on unlocking scripts")
	}
	b.SealInputHashes()
	if a.Tidy.InputHashes[0] == b.Tidy.InputHashes[0] {
		t.Fatal("input hash must depend on unlocking script")
	}
	// The miner's stake-position assignment must not affect it.
	c := buildEBVTx(t)
	c.Tidy.StakePos = 999
	if a.SigHash() != c.SigHash() {
		t.Fatal("sighash must not depend on the new tx's stake position")
	}
	// But what is spent must.
	d := buildEBVTx(t)
	d.Bodies[0].RelIndex = 0
	if a.SigHash() == d.SigHash() {
		t.Fatal("sighash must depend on the spent output")
	}
	// And so must the previous tx content (via its leaf hash).
	e := buildEBVTx(t)
	e.Bodies[0].PrevTx.StakePos++
	if a.SigHash() == e.SigHash() {
		t.Fatal("sighash must depend on the previous tidy tx")
	}
}

// checkDigests fails the test unless tx's LeafHash, body hashes
// (with their nested leaf hashes) and SigHash equal a recomputation
// from its encoding — a fresh decode, whose memos are empty — both on
// the first call, which fills the memos, and on the second, which
// reads them.
func checkDigests(t testing.TB, what string, tx *EBVTx) {
	t.Helper()
	fresh, err := DecodeEBVTx(tx.Encode(nil))
	if err != nil {
		t.Fatalf("%s: re-decode: %v", what, err)
	}
	leaf, sig := fresh.Tidy.LeafHash(), fresh.SigHash()
	bodies := make([]hashx.Hash, len(fresh.Bodies))
	prevs := make([]hashx.Hash, len(fresh.Bodies))
	for i := range fresh.Bodies {
		bodies[i], prevs[i] = fresh.Bodies[i].Hash(), fresh.Bodies[i].PrevTx.LeafHash()
	}
	for round := 0; round < 2; round++ {
		if tx.Tidy.LeafHash() != leaf {
			t.Fatalf("%s (call %d): LeafHash differs from recomputation", what, round+1)
		}
		for i := range tx.Bodies {
			if tx.Bodies[i].Hash() != bodies[i] || tx.Bodies[i].PrevTx.LeafHash() != prevs[i] {
				t.Fatalf("%s (call %d): body %d hash differs from recomputation", what, round+1, i)
			}
		}
		if tx.SigHash() != sig {
			t.Fatalf("%s (call %d): SigHash differs from recomputation", what, round+1)
		}
	}
}

// TestMemoizedDigestsMatchRecomputation pins the memo contract: after
// decode, and after an in-place mutation of every hashed part followed
// by Invalidate, the memoized digests equal an uncached recomputation.
func TestMemoizedDigestsMatchRecomputation(t *testing.T) {
	tx := &EBVTx{Tidy: sampleTidy(), Bodies: []InputBody{sampleBody(), sampleBody()}}
	tx.SealInputHashes()
	dec, err := DecodeEBVTx(tx.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, "decoded", dec)

	dec.Tidy.Outputs[0].Value++
	dec.Tidy.LockTime++
	dec.Bodies[0].RelIndex = 0
	dec.Bodies[1].UnlockScript[0] ^= 1
	dec.Bodies[1].PrevTx.StakePos++
	dec.Invalidate()
	checkDigests(t, "mutated", dec)
}

func TestSums(t *testing.T) {
	tx := buildEBVTx(t)
	in, ok := tx.InputSum()
	if !ok || in != 200 {
		t.Fatalf("InputSum=%d,%v", in, ok)
	}
	out, ok := tx.OutputSum()
	if !ok || out != 250 {
		t.Fatalf("OutputSum=%d,%v", out, ok)
	}
	tx.Bodies[0].RelIndex = 9
	if _, ok := tx.InputSum(); ok {
		t.Fatal("bad rel index must fail InputSum")
	}
	classic := sampleClassic()
	s, ok := classic.OutputSum()
	if !ok || s != 12000 {
		t.Fatalf("classic OutputSum=%d,%v", s, ok)
	}
	over := &Tx{Outputs: []TxOut{{Value: MaxValue}, {Value: MaxValue}}}
	if _, ok := over.OutputSum(); ok {
		t.Fatal("overflow must be detected")
	}
}

func TestEBVDecodeRejectsCorruption(t *testing.T) {
	tx := buildEBVTx(t)
	enc := tx.Encode(nil)
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeEBVTx(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	if _, err := DecodeEBVTx(append(enc, 7)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestPropertyClassicRoundTrip(t *testing.T) {
	f := func(ver uint32, nIn, nOut uint8, seed int64, lock []byte, lt uint32) bool {
		if len(lock) > MaxScriptBytes {
			lock = lock[:MaxScriptBytes]
		}
		tx := &Tx{Version: ver, LockTime: lt}
		for i := 0; i < int(nIn)%8; i++ {
			tx.Inputs = append(tx.Inputs, TxIn{
				PrevOut:      OutPoint{TxID: hashx.Sum([]byte{byte(seed), byte(i)}), Index: uint32(i)},
				UnlockScript: lock,
			})
		}
		for i := 0; i < int(nOut)%8; i++ {
			tx.Outputs = append(tx.Outputs, TxOut{Value: uint64(i) * 1000, LockScript: lock})
		}
		back, err := DecodeTx(tx.Encode(nil))
		return err == nil && back.TxID() == tx.TxID() && back.EncodedSize() == tx.EncodedSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEBVRoundTrip(t *testing.T) {
	f := func(ver uint32, nBody uint8, lock []byte, h uint64, rel uint16) bool {
		if len(lock) > MaxScriptBytes {
			lock = lock[:MaxScriptBytes]
		}
		tx := &EBVTx{Tidy: TidyTx{Version: ver, Outputs: []TxOut{{Value: 1, LockScript: lock}}}}
		for i := 0; i < int(nBody)%5; i++ {
			b := sampleBody()
			b.Height = h
			b.RelIndex = uint32(rel) % uint32(len(b.PrevTx.Outputs))
			b.UnlockScript = lock
			tx.Bodies = append(tx.Bodies, b)
		}
		tx.SealInputHashes()
		back, err := DecodeEBVTx(tx.Encode(nil))
		if err != nil {
			return false
		}
		return back.Consistent() == nil && back.Tidy.LeafHash() == tx.Tidy.LeafHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = DecodeTx(junk)
		_, _ = DecodeTidyTx(junk)
		_, _ = DecodeEBVTx(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEBVTxEncode(b *testing.B) {
	tx := &EBVTx{Tidy: sampleTidy(), Bodies: []InputBody{sampleBody(), sampleBody()}}
	tx.SealInputHashes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Encode(nil)
	}
}

func BenchmarkEBVTxDecode(b *testing.B) {
	tx := &EBVTx{Tidy: sampleTidy(), Bodies: []InputBody{sampleBody(), sampleBody()}}
	tx.SealInputHashes()
	enc := tx.Encode(nil)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEBVTx(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassicTxID(b *testing.B) {
	tx := sampleClassic()
	for i := 0; i < b.N; i++ {
		tx.TxID()
	}
}
