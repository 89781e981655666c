// Fast-sync integration tests: an honest snapshot server is a real
// EBV node behind the gossip wire; adversarial peers are raw TCP
// servers speaking the same frames with forged or truncated payloads.
package statesync_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ebv/internal/bitvec"
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/proof"
	"ebv/internal/statesync"
	"ebv/internal/statusdb"
	"ebv/internal/workload"
)

// buildChain renders a small EBV chain with ground-truth state.
func buildChain(t testing.TB, blocks int) (*workload.Generator, *chainstore.Store) {
	t.Helper()
	g := workload.NewGenerator(workload.TestParams(blocks))
	im, err := proof.NewIntermediary(t.TempDir(), g.Resign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	for !g.Done() {
		cb, err := g.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := im.ProcessBlock(cb); err != nil {
			t.Fatal(err)
		}
	}
	return g, im.Chain()
}

// preload replays blocks [0, upto) of src into en.
func preload(t testing.TB, en *node.EBVNode, src *chainstore.Store, upto uint64) {
	t.Helper()
	for h := uint64(chainCount(en)); h < upto; h++ {
		raw, err := src.BlockBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := en.SubmitBlock(blk); err != nil {
			t.Fatalf("preload %d: %v", h, err)
		}
	}
}

func chainCount(en *node.EBVNode) int { return en.Chain.Count() }

// newServedNode stands up a full EBV node holding blocks [0, upto) of
// src, serving gossip and snapshots (span heights per chunk) on
// localhost. It returns the listen address and the node.
func newServedNode(t testing.TB, src *chainstore.Store, upto uint64, span uint64) (string, *node.EBVNode) {
	t.Helper()
	en, err := node.NewEBVNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	preload(t, en, src, upto)
	gn := p2p.NewNode(p2p.EBVChain{Node: en}, p2p.Config{
		Snapshots: statesync.NewServer(en.Chain, en.Status, statesync.WithSpan(span)),
	})
	addr, err := gn.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gn.Close() })
	return addr, en
}

// newClientStores opens an empty chain store and status set for a
// direct FastSync call.
func newClientStores(t testing.TB) (*chainstore.Store, *statusdb.DB, string) {
	t.Helper()
	dir := t.TempDir()
	chain, err := chainstore.Open(filepath.Join(dir, "chain"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chain.Close() })
	return chain, statusdb.New(), dir
}

func clientConfig(dir string, peers ...string) statesync.Config {
	return statesync.Config{
		Peers:          peers,
		Dir:            filepath.Join(dir, "statesync"),
		SnapshotPath:   filepath.Join(dir, "status.snapshot"),
		Parallel:       3,
		RequestTimeout: 5 * time.Second,
		DialTimeout:    2 * time.Second,
	}
}

// saveBytes renders a status set's canonical snapshot stream.
func saveBytes(t testing.TB, db *statusdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startEvil runs a raw TCP peer speaking the gossip wire format with
// attacker-controlled responses. handle writes whatever response it
// wants for each request; returning an error drops the connection.
func startEvil(t testing.TB, handle func(m *wire.Message, conn net.Conn, w *bufio.Writer) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				if _, err := wire.Read(r); err != nil {
					return
				}
				if err := wire.Write(w, &wire.Message{Kind: wire.Hello, Features: wire.FeatureStateSync}); err != nil {
					return
				}
				for {
					m, err := wire.Read(r)
					if err != nil {
						return
					}
					if err := handle(m, conn, w); err != nil {
						return
					}
					if err := w.Flush(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// honestManifest grabs the manifest an honest node would serve, for
// evil servers that lie only about chunks.
func honestManifest(t testing.TB, en *node.EBVNode, span uint64) []byte {
	t.Helper()
	srv := statesync.NewServer(en.Chain, en.Status, statesync.WithSpan(span))
	data, ok := srv.ManifestBytes()
	if !ok {
		t.Fatal("honest node has no manifest")
	}
	return data
}

func TestManifestRoundTripAndRejects(t *testing.T) {
	_, src := buildChain(t, 24)
	tip, _ := src.TipHeight()
	headers := make([]blockmodel.Header, tip+1)
	for h := uint64(0); h <= tip; h++ {
		headers[h], _ = src.Header(h)
	}
	db := statusdb.New()
	// A synthetic sparse state is enough for codec coverage.
	if err := db.ImportVectors(tip, nil); err != nil {
		t.Fatal(err)
	}
	_, _, vecs := db.ExportVectors()
	m, payloads := statesync.BuildManifest(headers, vecs, 8)
	if m.Chunks() != 3 || uint64(len(payloads)) != 3 {
		t.Fatalf("24 heights / span 8 = %d chunks", m.Chunks())
	}
	enc := m.Encode()
	got, err := statesync.DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TipHeight() != tip || got.TipHash() != m.TipHash() || got.Span != 8 {
		t.Fatalf("round trip mismatch: tip %d hash %v", got.TipHeight(), got.TipHash())
	}
	for i := range payloads {
		if hashx.Sum(payloads[i]) != got.Digests[i] {
			t.Fatalf("digest %d does not cover payload", i)
		}
	}

	bad := [][]byte{
		nil,                  // empty
		enc[:len(enc)-1],     // truncated
		append([]byte{}, 99), // unknown version
	}
	// Tampered header: break linkage/identity mid-chain.
	tampered := append([]byte(nil), enc...)
	tampered[3+5*96] ^= 1 // inside header 5's encoding (version+span+count take 3 bytes here)
	bad = append(bad, tampered)
	// Span out of range.
	huge := *m
	huge.Span = statesync.MaxSpan + 1
	bad = append(bad, huge.Encode())
	// Overflow attack: with span 1, count 2^57+1 makes a naive size
	// check (count*96 + chunks*32, computed mod 2^64) wrap to 128, so
	// this ~140-byte frame would pass it and the header allocation
	// would panic. It must be rejected by the count bound instead.
	evil := []byte{1}                          // version
	evil = binary.AppendUvarint(evil, 1)       // span
	evil = binary.AppendUvarint(evil, 1<<57+1) // header count
	evil = append(evil, make([]byte, 128)...)
	bad = append(bad, evil)
	for i, b := range bad {
		if _, err := statesync.DecodeManifest(b); err == nil {
			t.Fatalf("malformed manifest %d accepted", i)
		}
	}
}

func TestFastSyncMatchesFullIBD(t *testing.T) {
	g, src := buildChain(t, 64)
	tip, _ := src.TipHeight()
	addr, serverNode := newServedNode(t, src, tip+1, 16)

	chain, status, dir := newClientStores(t)
	cfg := clientConfig(dir, addr)
	res, err := statesync.FastSync(chain, status, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TipHeight != tip || res.TipHash != src.TipHash() {
		t.Fatalf("synced tip %d/%v, want %d/%v", res.TipHeight, res.TipHash, tip, src.TipHash())
	}
	if res.BytesReceived == 0 {
		t.Fatal("no bytes accounted")
	}
	// Every header installed, no bodies (that is the point).
	if uint64(chain.Count()) != tip+1 {
		t.Fatalf("chain count %d, want %d", chain.Count(), tip+1)
	}
	for h := uint64(0); h <= tip; h++ {
		want, _ := src.Header(h)
		got, ok := chain.Header(h)
		if !ok || got.Hash() != want.Hash() {
			t.Fatalf("header %d mismatch", h)
		}
		if chain.HasBody(h) {
			t.Fatalf("fast sync stored a body at %d", h)
		}
	}
	// The status set must be byte-identical to the full-IBD node's.
	if !bytes.Equal(saveBytes(t, status), saveBytes(t, serverNode.Status)) {
		t.Fatal("fast-synced status set differs from full-IBD state")
	}
	if int(status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("unspent %d != ground truth %d", status.UnspentCount(), g.UTXOCount())
	}
	// Progress dir cleaned up; hardened snapshot written and loadable.
	if _, err := os.Stat(cfg.Dir); !os.IsNotExist(err) {
		t.Fatalf("progress dir still present: %v", err)
	}
	reloaded := statusdb.New()
	if err := reloaded.LoadFile(cfg.SnapshotPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, reloaded), saveBytes(t, status)) {
		t.Fatal("persisted snapshot differs from installed state")
	}
}

func TestFastSyncResumesAfterKill(t *testing.T) {
	g, src := buildChain(t, 64)
	tip, _ := src.TipHeight()
	addr, serverNode := newServedNode(t, src, tip+1, 8)

	chain, status, dir := newClientStores(t)
	cfg := clientConfig(dir, addr)
	killed := errors.New("killed")
	cfg.OnChunk = func(done int) error {
		if done >= 2 {
			return killed
		}
		return nil
	}
	if _, err := statesync.FastSync(chain, status, cfg); !errors.Is(err, killed) {
		t.Fatalf("expected simulated kill, got %v", err)
	}
	if chain.Count() != 0 {
		t.Fatal("aborted sync must not install headers")
	}

	// Second run — same dir, no kill switch — must reuse progress.
	cfg.OnChunk = nil
	res, err := statesync.FastSync(chain, status, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksResumed < 2 {
		t.Fatalf("resumed only %d chunks", res.ChunksResumed)
	}
	if res.TipHeight != tip || int(status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("resumed sync wrong state: tip %d unspent %d", res.TipHeight, status.UnspentCount())
	}
	if !bytes.Equal(saveBytes(t, status), saveBytes(t, serverNode.Status)) {
		t.Fatal("resumed state differs from full-IBD state")
	}
}

func TestForgedChunkFailsOverToHonestPeer(t *testing.T) {
	g, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	addr, serverNode := newServedNode(t, src, tip+1, 8)
	manifest := honestManifest(t, serverNode, 8)

	// The evil peer serves the true manifest but flips a byte in every
	// chunk — digests cannot match.
	evil := startEvil(t, func(m *wire.Message, _ net.Conn, w *bufio.Writer) error {
		switch m.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: manifest})
		case wire.GetChunk:
			forged := []byte{0xff, 0xee, 0xdd}
			return wire.Write(w, &wire.Message{Kind: wire.Chunk, Height: m.Height, Payload: forged})
		}
		return nil
	})

	chain, status, dir := newClientStores(t)
	// Evil first in the peer list, so it is tried.
	res, err := statesync.FastSync(chain, status, clientConfig(dir, evil, addr))
	if err != nil {
		t.Fatal(err)
	}
	if res.TipHeight != tip || int(status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("sync wrong despite honest peer: tip %d", res.TipHeight)
	}
	if !bytes.Equal(saveBytes(t, status), saveBytes(t, serverNode.Status)) {
		t.Fatal("state differs from full-IBD state")
	}
}

func TestForgedChunksAloneFailSync(t *testing.T) {
	_, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	_, serverNode := newServedNode(t, src, tip+1, 8)
	manifest := honestManifest(t, serverNode, 8)

	evil := startEvil(t, func(m *wire.Message, _ net.Conn, w *bufio.Writer) error {
		switch m.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: manifest})
		case wire.GetChunk:
			return wire.Write(w, &wire.Message{Kind: wire.Chunk, Height: m.Height, Payload: []byte{1, 2, 3}})
		}
		return nil
	})
	chain, status, dir := newClientStores(t)
	if _, err := statesync.FastSync(chain, status, clientConfig(dir, evil)); err == nil {
		t.Fatal("sync with only a forging peer must fail")
	}
	if chain.Count() != 0 || status.VectorCount() != 0 {
		t.Fatal("failed sync must leave state untouched")
	}
}

// TestMalformedVectorSnapshotInstallsNothing serves a snapshot whose
// digests are consistent (the manifest signs the chunks as served) but
// one of whose chunks carries a vector with no 1-bit, which no status
// set ever stores. The sync must fail before it installs anything: no
// header reaches the chain and the status set is untouched.
func TestMalformedVectorSnapshotInstallsNothing(t *testing.T) {
	_, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	_, serverNode := newServedNode(t, src, tip+1, 8)
	_, _, vecs := serverNode.Status.ExportVectors()
	if len(vecs) == 0 {
		t.Fatal("served node holds no vectors")
	}
	vecs[len(vecs)/2].Enc = bitvec.New(8).EncodeDense()
	headers := make([]blockmodel.Header, tip+1)
	for h := range headers {
		headers[h], _ = src.Header(uint64(h))
	}
	m, payloads := statesync.BuildManifest(headers, vecs, 8)
	manifest := m.Encode()
	evil := startEvil(t, func(msg *wire.Message, _ net.Conn, w *bufio.Writer) error {
		switch msg.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: manifest})
		case wire.GetChunk:
			return wire.Write(w, &wire.Message{Kind: wire.Chunk, Height: msg.Height, Payload: payloads[msg.Height]})
		}
		return nil
	})

	chain, status, dir := newClientStores(t)
	empty := saveBytes(t, status)
	_, err := statesync.FastSync(chain, status, clientConfig(dir, evil))
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("a snapshot carrying an all-zero vector must fail as malformed, got %v", err)
	}
	if chain.Count() != 0 {
		t.Fatalf("failed sync installed %d headers", chain.Count())
	}
	if !bytes.Equal(saveBytes(t, status), empty) {
		t.Fatal("failed sync changed the status set")
	}
}

func TestManifestContradictingLocalChainIsRejected(t *testing.T) {
	g, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	addr, serverNode := newServedNode(t, src, tip+1, 8)

	// Forge a fully self-consistent alternative chain: proper linkage
	// and (trivial) proof-of-work, but not the chain this client
	// validated. DecodeManifest accepts it; only the comparison against
	// local headers can catch the lie.
	forged := make([]blockmodel.Header, tip+1)
	prev := hashx.ZeroHash
	for h := uint64(0); h <= tip; h++ {
		forged[h] = blockmodel.Header{Height: h, PrevBlock: prev, MerkleRoot: hashx.Sum([]byte{byte(h)})}
		prev = forged[h].Hash()
	}
	fm, _ := statesync.BuildManifest(forged, nil, 8)
	forgedBytes := fm.Encode()
	evil := startEvil(t, func(m *wire.Message, _ net.Conn, w *bufio.Writer) error {
		switch m.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: forgedBytes})
		case wire.GetChunk:
			// "Nothing to serve" keeps the failover fast.
			return wire.Write(w, &wire.Message{Kind: wire.Chunk, Height: m.Height})
		}
		return nil
	})

	// The client has already validated a prefix of the real chain.
	client, err := node.NewEBVNode(node.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	preload(t, client, src, 8)

	// Only the liar available: the sync must fail, not install.
	dir := t.TempDir()
	if _, err := statesync.FastSync(client.Chain, client.Status, clientConfig(dir, evil)); err == nil {
		t.Fatal("forged manifest against local chain must not sync")
	}
	if client.Chain.Count() != 8 {
		t.Fatalf("failed sync moved the chain: %d", client.Chain.Count())
	}

	// Liar plus honest peer: the liar is skipped and the sync lands on
	// the real chain.
	res, err := statesync.FastSync(client.Chain, client.Status, clientConfig(t.TempDir(), evil, addr))
	if err != nil {
		t.Fatal(err)
	}
	if res.TipHeight != tip || res.TipHash != src.TipHash() {
		t.Fatalf("synced to %d/%v, want the real chain", res.TipHeight, res.TipHash)
	}
	if int(client.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("unspent %d != ground truth %d", client.Status.UnspentCount(), g.UTXOCount())
	}
	_ = serverNode
}

// A fresh node has no local headers to compare a manifest against, so
// a fabricated chain (free to mine with Bits=0) passes structural
// validation. Config.TrustedGenesis anchors the bootstrap: snapshots
// not building on the expected genesis are rejected, failing over to
// a peer serving the real chain or failing closed without one.
func TestTrustedGenesisAnchorsEmptyChainBootstrap(t *testing.T) {
	g, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	addr, _ := newServedNode(t, src, tip+1, 8)

	// A self-consistent fabricated chain from a different genesis.
	forged := make([]blockmodel.Header, tip+1)
	prev := hashx.ZeroHash
	for h := uint64(0); h <= tip; h++ {
		forged[h] = blockmodel.Header{Height: h, PrevBlock: prev, MerkleRoot: hashx.Sum([]byte{byte(h)})}
		prev = forged[h].Hash()
	}
	fm, _ := statesync.BuildManifest(forged, nil, 8)
	forgedBytes := fm.Encode()
	evil := startEvil(t, func(m *wire.Message, _ net.Conn, w *bufio.Writer) error {
		switch m.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: forgedBytes})
		case wire.GetChunk:
			return wire.Write(w, &wire.Message{Kind: wire.Chunk, Height: m.Height})
		}
		return nil
	})

	genesis, _ := src.Header(0)

	// Only the liar available to an anchored client: fail closed.
	chain, status, dir := newClientStores(t)
	cfg := clientConfig(dir, evil)
	cfg.TrustedGenesis = genesis.Hash()
	if _, err := statesync.FastSync(chain, status, cfg); err == nil {
		t.Fatal("forged chain must not pass a trusted-genesis anchor")
	}
	if chain.Count() != 0 || status.VectorCount() != 0 {
		t.Fatal("failed sync must leave state untouched")
	}

	// Liar plus honest peer: the liar is skipped, the real chain lands.
	chain2, status2, dir2 := newClientStores(t)
	cfg2 := clientConfig(dir2, evil, addr)
	cfg2.TrustedGenesis = genesis.Hash()
	res, err := statesync.FastSync(chain2, status2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TipHeight != tip || res.TipHash != src.TipHash() {
		t.Fatalf("synced to %d, want the real chain", res.TipHeight)
	}
	if int(status2.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("unspent %d != ground truth %d", status2.UnspentCount(), g.UTXOCount())
	}

	// The difficulty floor is enforced the same way: this test chain is
	// mined with Bits=0, so MinBits=1 must reject even the honest
	// snapshot rather than install unanchored state.
	chain3, status3, dir3 := newClientStores(t)
	cfg3 := clientConfig(dir3, addr)
	cfg3.MinBits = 1
	if _, err := statesync.FastSync(chain3, status3, cfg3); err == nil {
		t.Fatal("MinBits floor must reject a Bits=0 snapshot")
	}
	if chain3.Count() != 0 {
		t.Fatal("rejected sync must leave state untouched")
	}
}

func TestPeerDisconnectMidChunkFailsOver(t *testing.T) {
	g, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	addr, serverNode := newServedNode(t, src, tip+1, 8)
	manifest := honestManifest(t, serverNode, 8)

	// The evil peer starts a chunk frame, writes half of a plausible
	// body, and hangs up.
	evil := startEvil(t, func(m *wire.Message, conn net.Conn, w *bufio.Writer) error {
		switch m.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: manifest})
		case wire.GetChunk:
			frame := []byte{wire.Chunk}
			frame = binary.AppendUvarint(frame, 1000)
			frame = append(frame, make([]byte, 400)...)
			w.Write(frame)
			w.Flush()
			return errors.New("hang up mid-frame")
		}
		return nil
	})

	chain, status, dir := newClientStores(t)
	res, err := statesync.FastSync(chain, status, clientConfig(dir, evil, addr))
	if err != nil {
		t.Fatal(err)
	}
	if res.TipHeight != tip || int(status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("sync wrong despite honest peer: tip %d", res.TipHeight)
	}
}

func TestOversizedChunkFrameFailsOver(t *testing.T) {
	g, src := buildChain(t, 48)
	tip, _ := src.TipHeight()
	addr, serverNode := newServedNode(t, src, tip+1, 8)
	manifest := honestManifest(t, serverNode, 8)

	// The evil peer declares a body far beyond MaxPayload. The client
	// must refuse the frame outright (no 33 MiB allocation, no hang)
	// and fail over — without the sync dying.
	evil := startEvil(t, func(m *wire.Message, conn net.Conn, w *bufio.Writer) error {
		switch m.Kind {
		case wire.GetManifest:
			return wire.Write(w, &wire.Message{Kind: wire.Manifest, Payload: manifest})
		case wire.GetChunk:
			frame := []byte{wire.Chunk}
			frame = binary.AppendUvarint(frame, wire.MaxPayload+1)
			frame = append(frame, make([]byte, 64)...) // start of the "body"
			w.Write(frame)
			w.Flush()
			return errors.New("done lying")
		}
		return nil
	})

	chain, status, dir := newClientStores(t)
	res, err := statesync.FastSync(chain, status, clientConfig(dir, evil, addr))
	if err != nil {
		t.Fatal(err)
	}
	if res.TipHeight != tip || int(status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("sync wrong despite honest peer: tip %d", res.TipHeight)
	}
	if !bytes.Equal(saveBytes(t, status), saveBytes(t, serverNode.Status)) {
		t.Fatal("state differs from full-IBD state")
	}
}

func TestNodeFastSyncBootstrapAndGossipHandoff(t *testing.T) {
	g, src := buildChain(t, 60)
	tip, _ := src.TipHeight()
	// The server initially holds all but the last 10 blocks.
	addr, serverNode := newServedNode(t, src, tip-9, 16)

	// A fresh node bootstraps through Config.FastSync inside NewEBVNode.
	clientDir := t.TempDir()
	client, err := node.NewEBVNode(node.Config{
		Dir:      clientDir,
		FastSync: &statesync.Config{Peers: []string{addr}, Parallel: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if client.FastSyncResult == nil || client.FastSyncResult.TipHeight != tip-10 {
		t.Fatalf("bootstrap result %+v, want tip %d", client.FastSyncResult, tip-10)
	}

	// Handoff: the server keeps growing; the client catches up over
	// normal gossip from the snapshot tip, validating every new block.
	preload(t, serverNode, src, tip+1)
	clientGossip := p2p.NewNode(p2p.EBVChain{Node: client}, p2p.Config{})
	if _, err := clientGossip.Start(); err != nil {
		t.Fatal(err)
	}
	defer clientGossip.Close()
	if err := clientGossip.Connect(addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, ok := client.Chain.TipHeight(); ok && got == tip {
			break
		}
		if time.Now().After(deadline) {
			got, _ := client.Chain.TipHeight()
			t.Fatalf("gossip handoff stalled at %d, want %d", got, tip)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if int(client.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatalf("unspent %d != ground truth %d", client.Status.UnspentCount(), g.UTXOCount())
	}

	// Restart: the node reopens from its hardened snapshot without
	// re-syncing (FastSync still configured but the chain is populated).
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := node.NewEBVNode(node.Config{
		Dir:      clientDir,
		FastSync: &statesync.Config{Peers: []string{addr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.FastSyncResult != nil {
		t.Fatal("reopen must not fast-sync again")
	}
	if got, _ := reopened.Chain.TipHeight(); got != tip {
		t.Fatalf("reopened tip %d, want %d", got, tip)
	}
	if int(reopened.Status.UnspentCount()) != g.UTXOCount() {
		t.Fatal("reopened state lost")
	}
}
