// Package p2p implements block gossip between nodes: the network
// behaviour the paper's security argument rests on — a node validates
// a newly received block *before* storing and forwarding it (§I), so
// validation speed directly shapes propagation delay.
//
// The protocol is deliberately small:
//
//	hello       — exchange tip heights (+ a feature byte) on connect
//	inv         — announce a new tip (height + block hash)
//	getblocks   — request a run of blocks by height
//	block       — deliver one serialized block
//	getmanifest — request the peer's snapshot manifest (statesync)
//	manifest    — deliver the manifest (empty = none available)
//	getchunk    — request one snapshot chunk by index (statesync)
//	chunk       — deliver one snapshot chunk (empty = unavailable)
//
// Frame encoding and the connection session (wire.Conn) live in the
// wire subpackage so the statesync and light clients and the load
// generator speak the same protocol without importing the gossip
// node. A
// node that learns of a longer chain requests the missing heights in
// order and submits each block to its validator; only blocks that pass
// validation are stored and re-announced to other peers. Unknown
// message kinds from newer peers are logged and skipped, not treated
// as an offence, so future protocol extensions do not cost the
// connection. The package is validator-agnostic: it moves opaque block
// bytes over a Chain interface that EBV and baseline nodes both
// satisfy.
package p2p

// SnapshotProvider serves state snapshots to fast-syncing peers. A
// node with a provider advertises wire.FeatureStateSync in its hello
// and answers getmanifest/getchunk; without one it answers with empty
// payloads, which clients read as "no snapshot here".
//
// statesync.Server is the canonical implementation.
type SnapshotProvider interface {
	// ManifestBytes returns the encoded manifest of the current
	// snapshot; ok is false when no snapshot can be served yet.
	ManifestBytes() ([]byte, bool)
	// ChunkBytes returns the encoded chunk at index for the snapshot
	// described by the last returned manifest.
	ChunkBytes(index uint64) ([]byte, error)
}
