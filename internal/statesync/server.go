package statesync

import (
	"fmt"
	"sync"

	"ebv/internal/blockmodel"
	"ebv/internal/statusdb"
)

// HeaderChain is the slice of the chain a snapshot server needs:
// chainstore.Store satisfies it.
type HeaderChain interface {
	TipHeight() (uint64, bool)
	Header(height uint64) (blockmodel.Header, bool)
}

// Server materializes snapshots of a node's status set and serves
// them to fast-syncing peers. It implements p2p.SnapshotProvider:
// plug it into p2p.Config.Snapshots.
//
// A snapshot is built lazily on the first manifest request and then
// cached; it is rebuilt when the chain has advanced RefreshAfter
// blocks past the snapshot tip. Chunks are cut and digested at build
// time, so serving a chunk is a slice lookup — a peer cannot make the
// server re-pack state on every request.
type Server struct {
	chain HeaderChain
	db    *statusdb.DB

	span    uint64
	refresh uint64

	mu       sync.Mutex
	manifest []byte   // encoded, nil until first build
	chunks   [][]byte // chunk payloads for the cached manifest
	snapTip  uint64
}

// ServerOption tweaks a Server (tests use small spans).
type ServerOption func(*Server)

// WithSpan sets the chunk span (heights per chunk).
func WithSpan(span uint64) ServerOption {
	return func(s *Server) { s.span = span }
}

// WithRefreshAfter sets how many blocks past the snapshot tip the
// chain may advance before the next manifest request rebuilds the
// snapshot.
func WithRefreshAfter(blocks uint64) ServerOption {
	return func(s *Server) { s.refresh = blocks }
}

// NewServer creates a snapshot server over a node's chain and status
// set. The two must belong to the same node, updated in the usual
// order (status connect, then chain append).
func NewServer(chain HeaderChain, db *statusdb.DB, opts ...ServerOption) *Server {
	s := &Server{chain: chain, db: db, span: DefaultSpan, refresh: DefaultSpan}
	for _, o := range opts {
		o(s)
	}
	if s.span == 0 || s.span > MaxSpan {
		s.span = DefaultSpan
	}
	return s
}

// ManifestBytes returns the encoded manifest of the current snapshot,
// building or refreshing it if needed. ok is false while the node has
// no consistent state to serve.
func (s *Server) ManifestBytes() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tip, ok := s.db.Tip()
	if !ok {
		return nil, false
	}
	if s.manifest == nil || tip >= s.snapTip+s.refresh {
		if err := s.rebuildLocked(); err != nil {
			// Keep serving the previous snapshot, if any.
			if s.manifest == nil {
				return nil, false
			}
		}
	}
	return s.manifest, true
}

// ChunkBytes returns the payload of chunk index for the snapshot
// described by the last manifest. A client that obtained the manifest
// from a different peer may ask for chunks first, so the snapshot is
// built lazily here too; digest verification on the client keeps a
// tip mismatch harmless (the chunk just fails over).
func (s *Server) ChunkBytes(index uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		if err := s.rebuildLocked(); err != nil {
			return nil, err
		}
	}
	if index >= uint64(len(s.chunks)) {
		return nil, fmt.Errorf("statesync: chunk %d of %d", index, len(s.chunks))
	}
	return s.chunks[index], nil
}

// SnapshotTip returns the tip of the currently cached snapshot; ok is
// false before the first build.
func (s *Server) SnapshotTip() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapTip, s.manifest != nil
}

// rebuildLocked exports the status set and cuts a new snapshot. The
// export is a single consistent copy (statusdb copies the set's
// pointers under its read lock, between commits, then sorts and copies
// outside it); the chain tip is read afterwards and must cover the
// export tip — during normal operation status is connected before the
// chain appends, so chainTip ∈ {statusTip-1, statusTip, ...} and a
// brief mismatch just means we serve the previous snapshot until the
// next request.
func (s *Server) rebuildLocked() error {
	tip, ok, vecs := s.db.ExportVectors()
	if !ok {
		return fmt.Errorf("statesync: empty status set")
	}
	chainTip, ok := s.chain.TipHeight()
	if !ok || chainTip < tip {
		return fmt.Errorf("statesync: chain tip behind status tip %d", tip)
	}
	headers := make([]blockmodel.Header, tip+1)
	for h := uint64(0); h <= tip; h++ {
		hdr, ok := s.chain.Header(h)
		if !ok {
			return fmt.Errorf("statesync: missing header %d", h)
		}
		headers[h] = hdr
	}
	m, payloads := BuildManifest(headers, vecs, s.span)
	s.manifest = m.Encode()
	s.chunks = payloads
	s.snapTip = tip
	return nil
}
