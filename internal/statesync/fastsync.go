package statesync

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/statusdb"
)

// Config configures a FastSync run.
type Config struct {
	// Peers are the addresses to download from. At least one is
	// required; chunks are spread across all of them.
	Peers []string
	// Dir persists sync progress (the manifest and verified chunks) so
	// a killed node resumes mid-download. It is removed after a
	// successful install.
	Dir string
	// SnapshotPath, when set, receives a hardened status snapshot
	// (statusdb.SaveFile) right after install, so the node restarts
	// from the synced state without replaying anything.
	SnapshotPath string
	// Parallel is the number of concurrent chunk downloads. Default 4
	// (capped at the number of peers by the one-worker-per-peer rule).
	Parallel int
	// RequestTimeout bounds each manifest/chunk request. Default 15s.
	RequestTimeout time.Duration
	// DialTimeout bounds connection setup per peer. Default 5s.
	DialTimeout time.Duration
	// PeerFailLimit is how many failures (dial, timeout, bad digest,
	// unavailable) retire a peer for the rest of the sync. Default 3.
	PeerFailLimit int
	// TrustedGenesis, when non-zero, requires the manifest's genesis
	// header hash to equal it — the bootstrap anchor for a fresh node,
	// which has no local headers to compare a manifest against.
	TrustedGenesis hashx.Hash
	// MinBits, when non-zero, requires every manifest header to declare
	// at least this many leading-zero proof-of-work bits. Per-header
	// PoW alone checks a header against its own Bits field, so without
	// a floor a fabricated Bits=0 chain costs nothing to mine
	// (blockmodel treats Bits=0 as PoW disabled).
	MinBits uint32
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
	// OnChunk, if set, is called after each chunk is verified and
	// persisted, with the number of chunks now complete. Returning an
	// error aborts the sync at that point — tests use this to simulate
	// a node killed mid-download.
	OnChunk func(done int) error
}

// Result summarizes a completed FastSync.
type Result struct {
	TipHeight     uint64
	TipHash       hashx.Hash
	Chunks        int   // total chunks in the snapshot
	ChunksResumed int   // verified on disk from a previous run
	BytesReceived int64 // bytes read from peers by this run
	Wall          time.Duration
}

// FastSync bootstraps chain and status from peer snapshots: fetch and
// validate a manifest, download and verify all chunks (resuming any
// prior progress persisted in cfg.Dir), then install headers into
// chain and vectors into status. On success the node's state is
// byte-identical to a full-IBD node's status set at the snapshot tip,
// and normal IBD/gossip can take over from there.
//
// chain must be empty or hold a prefix of the snapshot's header chain
// (the crash-recovery case); status is replaced wholesale.
func FastSync(chain *chainstore.Store, status *statusdb.DB, cfg Config) (*Result, error) {
	start := time.Now()
	if len(cfg.Peers) == 0 {
		return nil, errors.New("statesync: no peers configured")
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.PeerFailLimit <= 0 {
		cfg.PeerFailLimit = 3
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Dir == "" {
		return nil, errors.New("statesync: no persistence dir configured")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("statesync: %w", err)
	}

	var bytesIn atomic.Int64
	ps := newPeerSet(cfg.Peers, cfg.PeerFailLimit)
	defer ps.closeAll()

	// 1+2. Manifest: reuse a persisted one (mid-download resume keeps
	// the digests we already verified chunks against), else fetch. A
	// manifest is usable only if the locally validated chain is a
	// prefix of it — empty for a fresh node, possibly complete when
	// resuming after a crash between install and cleanup. A peer whose
	// manifest disagrees with local state is penalized and the next
	// peer tried; only the fetch loop running dry aborts the sync.
	checkLocal := func(m *Manifest) error {
		if cfg.TrustedGenesis != hashx.ZeroHash && m.Headers[0].Hash() != cfg.TrustedGenesis {
			return fmt.Errorf("snapshot genesis %s does not match trusted genesis %s",
				m.Headers[0].Hash().Short(), cfg.TrustedGenesis.Short())
		}
		if cfg.MinBits > 0 {
			for i := range m.Headers {
				if m.Headers[i].Bits < cfg.MinBits {
					return fmt.Errorf("header %d declares %d difficulty bits, below required %d",
						i, m.Headers[i].Bits, cfg.MinBits)
				}
			}
		}
		tip := m.TipHeight()
		if uint64(chain.Count()) > tip+1 {
			return fmt.Errorf("local chain (%d blocks) ahead of snapshot tip %d", chain.Count(), tip)
		}
		if n := chain.Count(); n > 0 {
			local, _ := chain.Header(uint64(n - 1))
			if local.Hash() != m.Headers[n-1].Hash() {
				return fmt.Errorf("local chain disagrees with snapshot at height %d", n-1)
			}
		}
		return nil
	}
	manifest, err := loadOrFetchManifest(&cfg, ps, checkLocal, &bytesIn, logf)
	if err != nil {
		return nil, err
	}
	tip := manifest.TipHeight()

	// 2. Scan persisted chunks from a previous run; re-verify digests
	// so a torn write is re-downloaded rather than installed.
	total := int(manifest.Chunks())
	chunks := make([][]byte, total)
	resumed := 0
	for i := 0; i < total; i++ {
		data, err := os.ReadFile(chunkPath(cfg.Dir, i))
		if err != nil {
			continue
		}
		if hashx.Sum(data) != manifest.Digests[i] {
			os.Remove(chunkPath(cfg.Dir, i))
			continue
		}
		chunks[i] = data
		resumed++
	}
	if resumed > 0 {
		logf("statesync: resuming with %d/%d chunks already on disk", resumed, total)
	}

	// 3. Download the rest concurrently with peer failover.
	if err := downloadChunks(&cfg, ps, manifest, chunks, &bytesIn, logf); err != nil {
		return nil, err
	}

	// 4. Validate every chunk before installing anything, so a
	// malformed snapshot leaves the chain and the status set as they
	// were.
	var vecs []statusdb.HeightVector
	for i := 0; i < total; i++ {
		from, to := manifest.ChunkRange(uint64(i))
		hv, err := statusdb.UnpackRange(chunks[i], from, to)
		if err != nil {
			// Digest-verified data that fails structural validation
			// means the snapshot itself is malformed, not a transport
			// problem.
			return nil, fmt.Errorf("statesync: chunk %d malformed: %w", i, err)
		}
		vecs = append(vecs, hv...)
	}

	// 5. Install: headers (idempotent from the current count), then
	// the status set in one atomic import, then the hardened local
	// snapshot, and only then drop the progress dir. A crash between
	// any two steps re-runs FastSync, which finds every chunk on disk
	// and repeats the install without touching the network.
	for h := uint64(chain.Count()); h <= tip; h++ {
		if err := chain.AppendHeader(manifest.Headers[h]); err != nil {
			return nil, fmt.Errorf("statesync: install header %d: %w", h, err)
		}
	}
	if err := status.ImportVectors(tip, vecs); err != nil {
		return nil, fmt.Errorf("statesync: install vectors: %w", err)
	}
	if cfg.SnapshotPath != "" {
		if err := status.SaveFile(cfg.SnapshotPath); err != nil {
			return nil, fmt.Errorf("statesync: write snapshot: %w", err)
		}
	}
	if err := os.RemoveAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("statesync: cleanup: %w", err)
	}

	res := &Result{
		TipHeight:     tip,
		TipHash:       manifest.TipHash(),
		Chunks:        total,
		ChunksResumed: resumed,
		BytesReceived: bytesIn.Load(),
		Wall:          time.Since(start),
	}
	logf("statesync: installed snapshot tip %d (%d chunks, %d resumed, %d bytes received)",
		res.TipHeight, res.Chunks, res.ChunksResumed, res.BytesReceived)
	return res, nil
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest") }
func chunkPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("chunk-%06d", i))
}

// loadOrFetchManifest returns the persisted manifest when one decodes,
// validates, and agrees with local state (checkLocal), otherwise
// fetches one from the peers (first usable answer wins) and persists
// it.
func loadOrFetchManifest(cfg *Config, ps *peerSet, checkLocal func(*Manifest) error, bytesIn *atomic.Int64, logf func(string, ...any)) (*Manifest, error) {
	if data, err := os.ReadFile(manifestPath(cfg.Dir)); err == nil {
		m, err := DecodeManifest(data)
		if err == nil && checkLocal(m) == nil {
			logf("statesync: resuming persisted manifest (tip %d)", m.TipHeight())
			return m, nil
		}
		logf("statesync: persisted manifest unusable, refetching")
		os.Remove(manifestPath(cfg.Dir))
	}
	tried := make(map[*peerState]bool)
	for {
		p := ps.acquire(tried)
		if p == nil {
			return nil, errors.New("statesync: no peer served a valid manifest")
		}
		data, err := fetchFrom(p, cfg, func(c *syncConn) ([]byte, error) {
			return c.getManifest(cfg.RequestTimeout)
		}, bytesIn)
		var m *Manifest
		if err == nil {
			// A peer pushing a manifest that fails validation (bad
			// linkage, bad proof-of-work) or whose chain contradicts
			// headers this node already validated is lying or broken:
			// penalize and move on.
			if m, err = DecodeManifest(data); err == nil {
				err = checkLocal(m)
			}
		}
		if err != nil {
			logf("statesync: manifest from %s rejected: %v", p.addr, err)
			ps.fail(p)
			tried[p] = true
			continue
		}
		ps.release(p)
		if err := writeFileAtomic(manifestPath(cfg.Dir), data); err != nil {
			return nil, fmt.Errorf("statesync: persist manifest: %w", err)
		}
		logf("statesync: manifest from %s: tip %d, %d chunks (span %d)",
			p.addr, m.TipHeight(), m.Chunks(), m.Span)
		return m, nil
	}
}

// fetchFrom runs one request against an acquired peer, dialing its
// connection on demand. Any error leaves the peer for the caller to
// penalize.
func fetchFrom(p *peerState, cfg *Config, do func(*syncConn) ([]byte, error), bytesIn *atomic.Int64) ([]byte, error) {
	if p.conn == nil {
		c, err := dialSync(p.addr, cfg.DialTimeout, bytesIn)
		if err != nil {
			return nil, err
		}
		p.conn = c
	}
	return do(p.conn)
}

// downloadChunks fills every nil entry of chunks, persisting each
// verified chunk before marking it done.
func downloadChunks(cfg *Config, ps *peerSet, m *Manifest, chunks [][]byte, bytesIn *atomic.Int64, logf func(string, ...any)) error {
	var missing []int
	for i, c := range chunks {
		if c == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	workers := cfg.Parallel
	if workers > len(cfg.Peers) {
		workers = len(cfg.Peers)
	}
	if workers > len(missing) {
		workers = len(missing)
	}

	var (
		mu       sync.Mutex
		done     = len(chunks) - len(missing)
		aborted  bool
		firstErr error
	)
	abort := func(err error) {
		mu.Lock()
		if !aborted {
			aborted = true
			firstErr = err
		}
		mu.Unlock()
	}
	isAborted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return aborted
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if isAborted() {
					continue // drain
				}
				data, err := fetchChunk(cfg, ps, m, i, bytesIn, logf)
				if err != nil {
					abort(err)
					continue
				}
				if err := writeFileAtomic(chunkPath(cfg.Dir, i), data); err != nil {
					abort(fmt.Errorf("statesync: persist chunk %d: %w", i, err))
					continue
				}
				chunks[i] = data
				mu.Lock()
				done++
				n := done
				mu.Unlock()
				if cfg.OnChunk != nil {
					if err := cfg.OnChunk(n); err != nil {
						abort(err)
					}
				}
			}
		}()
	}
	for _, i := range missing {
		work <- i
	}
	close(work)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// fetchChunk downloads and digest-verifies chunk i, failing over
// across peers until one serves it correctly or none remain.
func fetchChunk(cfg *Config, ps *peerSet, m *Manifest, i int, bytesIn *atomic.Int64, logf func(string, ...any)) ([]byte, error) {
	tried := make(map[*peerState]bool)
	for {
		p := ps.acquire(tried)
		if p == nil {
			return nil, fmt.Errorf("statesync: no usable peer left for chunk %d", i)
		}
		data, err := fetchFrom(p, cfg, func(c *syncConn) ([]byte, error) {
			return c.getChunk(uint64(i), cfg.RequestTimeout)
		}, bytesIn)
		if err == nil && hashx.Sum(data) != m.Digests[i] {
			err = fmt.Errorf("digest mismatch (%d bytes)", len(data))
		}
		if err != nil {
			// Timeout, disconnect, oversized frame, unavailable, or a
			// forged payload: penalize this peer and try the next.
			logf("statesync: chunk %d from %s: %v", i, p.addr, err)
			ps.fail(p)
			tried[p] = true
			continue
		}
		ps.release(p)
		return data, nil
	}
}

// writeFileAtomic writes data to path via a temp file + rename in the
// same directory, so a crash never leaves a torn file at path.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
