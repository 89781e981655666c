// Package wire defines the framed message codec and the connection
// session (Conn, see conn.go) shared by the gossip protocol
// (internal/p2p), the fast-bootstrap state sync (internal/statesync),
// the light client (internal/light) and the load generator. It is a
// leaf package — only framing and connection concerns live here — so
// every side of the protocol speaks the same frames over the same
// out-queue without an import cycle through the node types.
//
// Every frame is
//
//	kind byte | varint body length | body
//
// with the body bounded by MaxPayload in both directions: a writer
// refuses to emit an oversized frame and a reader refuses to buffer
// one, so the limit cannot be bypassed from either end.
//
// Kinds 1–4 are the original gossip protocol; kinds 5–8 carry the
// statesync snapshot exchange; kinds 9–11 carry the fork-choice
// headers exchange (locator-based getheaders/headers plus getdata for
// block bodies by hash); kinds 12–13 carry transaction submission
// (tx with a request id, answered by a txack verdict carrying a
// one-byte admission code); kinds 14–16 carry compact block relay
// (a short-id compact announcement, a request for missing
// transactions by block-slot index, and its answer — see
// internal/relay for the body formats, which are opaque to this
// codec); kinds 17–20 carry the light-client serve path
// (a filter subscription, a push notification for a matching block, a
// selected-block request by hash, and its answer — the filter
// encoding is internal/light's concern and opaque to this codec).
// Hello frames additionally carry an optional
// trailing feature byte (see Features) so capable peers can discover
// each other. The trailer is written only when at least one feature is
// advertised, so a node advertising none emits exactly the legacy
// hello and interoperates with pre-feature binaries in both
// directions; a node advertising a feature can only handshake with
// peers new enough to accept the trailer. A hello advertising
// FeatureForkChoice appends one more field after the trailer: the
// node's cumulative tip work as length-prefixed big-endian bytes, so
// peers can detect a heavier branch before exchanging a single header.
// A hello advertising FeatureCompactRelay then appends a fixed 8-byte
// little-endian nonce: the salt under which that node derives the
// short ids of every compact block it announces on this connection.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ebv/internal/hashx"
	"ebv/internal/varint"
)

// Message kinds.
const (
	Hello byte = iota + 1
	Inv
	GetBlocks
	Block
	GetManifest
	Manifest
	GetChunk
	Chunk
	GetHeaders
	Headers
	GetData
	Tx
	TxAck
	CmpctBlock
	GetBlockTxn
	BlockTxn
	Subscribe
	SubUpdate
	GetLightBlock
	LightBlock
)

// kindNames maps each kind byte to its protocol name.
var kindNames = [...]string{
	Hello: "hello", Inv: "inv", GetBlocks: "getblocks", Block: "block",
	GetManifest: "getmanifest", Manifest: "manifest", GetChunk: "getchunk",
	Chunk: "chunk", GetHeaders: "getheaders", Headers: "headers",
	GetData: "getdata", Tx: "tx", TxAck: "txack", CmpctBlock: "cmpctblock",
	GetBlockTxn: "getblocktxn", BlockTxn: "blocktxn",
	Subscribe: "subscribe", SubUpdate: "subupdate",
	GetLightBlock: "getlightblock", LightBlock: "lightblock",
}

// KindName returns the protocol name of a message kind, or "kind-N"
// for kinds this version does not know.
func KindName(k byte) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

// MaxPayload bounds one message body (a block plus its proofs, or one
// snapshot chunk). Enforced symmetrically by Write and Read.
const MaxPayload = 32 << 20

// MaxBatch bounds one getblocks or getdata request.
const MaxBatch = 256

// MaxLocator bounds one getheaders locator. A locator over a chain of
// height h has ~10 + log2(h) entries, so 64 covers any realistic
// chain with a wide margin.
const MaxLocator = 64

// MaxTipWork bounds the hello tip-work field: cumulative work is a
// sum of 2^Bits terms, far below 2^512 for any feasible chain.
const MaxTipWork = 64

// Feature bits carried in the hello trailer byte. A hello without the
// trailer (every pre-statesync node) advertises no features.
const (
	// FeatureStateSync marks a peer that serves snapshot manifests and
	// chunks (kinds 5–8).
	FeatureStateSync byte = 1 << 0
	// FeatureForkChoice marks a peer that runs a fork-choice engine:
	// it understands getheaders/headers/getdata (kinds 9–11), accepts
	// competing-branch blocks, and appends its cumulative tip work to
	// its hello.
	FeatureForkChoice byte = 1 << 1
	// FeatureTxSubmit marks a peer that runs the transaction-admission
	// service: it accepts tx submissions (kind 12) and answers each
	// with a txack verdict (kind 13).
	FeatureTxSubmit byte = 1 << 2
	// FeatureCompactRelay marks a peer that speaks compact block relay
	// (kinds 14–16): it accepts short-id compact announcements,
	// reconstructs blocks from its mempool, and serves getblocktxn for
	// blocks it recently announced. Its hello carries an 8-byte salt
	// nonce after the tip-work field.
	FeatureCompactRelay byte = 1 << 3
	// FeatureLightServe marks a full node that serves the light-client
	// tier (kinds 17–20): it accepts filter subscriptions, pushes
	// subupdate notifications for matching blocks, and answers
	// getlightblock with proof-carrying block bytes. Deliberately adds
	// NO hello payload — peers that don't know the bit parse the hello
	// unchanged and simply never subscribe, so the bit is safe to
	// advertise to everyone.
	FeatureLightServe byte = 1 << 4
)

// ErrUnknownKind reports a frame whose kind byte this version does not
// understand. The frame's body has been fully consumed, so the caller
// may log the kind and keep reading from the same connection — newer
// peers with extra message types must not cost us the connection.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// Message is one decoded wire message.
type Message struct {
	Kind     byte
	Height   uint64 // hello: next height needed; inv/block: block height; getblocks: first height; getchunk/chunk: chunk index; subupdate/lightblock: block height
	Count    uint64 // getblocks: number of blocks; subupdate: matching transactions in the block
	Hash     hashx.Hash
	Features byte         // hello: feature bits
	Code     byte         // txack: admission reject code (0 = admitted); subupdate: flags (bit 0 = notifications dropped, poll)
	Nonce    uint64       // hello (FeatureCompactRelay): short-id salt for this connection
	TipWork  []byte       // hello (FeatureForkChoice): cumulative tip work, big-endian
	Hashes   []hashx.Hash // getheaders: block locator; getdata: wanted block hashes
	Payload  []byte       // block: serialized block; headers: concatenated fixed-width headers; manifest/chunk: snapshot bytes; tx: serialized transaction; cmpctblock/getblocktxn/blocktxn: relay body (see internal/relay); subscribe: filter encoding (see internal/light); lightblock: serialized block
}

// Write frames and writes m. Bodies larger than MaxPayload are
// refused here, before any bytes hit the socket, mirroring the read
// side's limit.
func Write(w *bufio.Writer, m *Message) error {
	_, err := WriteCounted(w, m)
	return err
}

// WriteCounted is Write returning the full frame size in bytes (kind
// byte + length varint + body), so callers keeping per-kind traffic
// counters can attribute exactly what each message cost on the wire.
// It is WriteFrame followed by one Flush.
func WriteCounted(w *bufio.Writer, m *Message) (int, error) {
	n, err := WriteFrame(w, m)
	if err != nil {
		return 0, err
	}
	return n, w.Flush()
}

// maxHead bounds a frame's kind byte plus its body-length varint.
const maxHead = 1 + binary.MaxVarintLen64

// WriteFrame buffers m's frame in w without flushing it and returns the
// full frame size in bytes, so a writer holding several messages can
// put them all on the wire with one Flush. An oversized or unencodable
// message is refused before any of its bytes reach w.
//
// Every field but a trailing payload is encoded straight into w's free
// buffer space, behind room reserved for the head, so a frame that fits
// in the buffer costs no allocation; the payload is copied from m.
func WriteFrame(w *bufio.Writer, m *Message) (int, error) {
	buf := append(w.AvailableBuffer(), make([]byte, maxHead)...)
	buf, payload, err := appendFields(buf, m)
	if err != nil {
		return 0, err
	}
	size := len(buf) - maxHead + len(payload)
	if size > MaxPayload {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	var lenbuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenbuf[:], uint64(size))
	start := maxHead - 1 - k
	buf[start] = m.Kind
	copy(buf[start+1:], lenbuf[:k])
	// When buf is still w's own free space this Write moves the frame
	// down over the unused head room, which copy handles.
	if _, err := w.Write(buf[start:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return len(buf) - start + len(payload), nil
}

// appendFields appends m's body to b, except for a trailing payload,
// which it returns for the caller to write after the head.
func appendFields(b []byte, m *Message) ([]byte, []byte, error) {
	switch m.Kind {
	case Hello:
		b = binary.AppendUvarint(b, m.Height)
		// The trailer is omitted when no features are advertised: legacy
		// decoders require the body to be exactly one varint, so a
		// featureless hello stays byte-compatible with pre-feature nodes.
		// Advertising any feature requires an upgraded peer.
		if m.Features != 0 {
			b = append(b, m.Features)
		}
		// FeatureForkChoice adds the cumulative tip-work field and
		// FeatureCompactRelay the fixed-width salt nonce, in that order;
		// other features leave the hello at exactly varint + trailer.
		if m.Features&FeatureForkChoice != 0 {
			if len(m.TipWork) > MaxTipWork {
				return nil, nil, fmt.Errorf("wire: tip work of %d bytes exceeds limit", len(m.TipWork))
			}
			b = binary.AppendUvarint(b, uint64(len(m.TipWork)))
			b = append(b, m.TipWork...)
		}
		if m.Features&FeatureCompactRelay != 0 {
			b = binary.LittleEndian.AppendUint64(b, m.Nonce)
		}
		return b, nil, nil
	case Inv:
		b = binary.AppendUvarint(b, m.Height)
		return append(b, m.Hash[:]...), nil, nil
	case GetBlocks:
		b = binary.AppendUvarint(b, m.Height)
		return binary.AppendUvarint(b, m.Count), nil, nil
	case Block, Chunk, Tx, CmpctBlock:
		// Height (for tx, the submitter's request id, echoed by the ack
		// so verdicts can be matched to pipelined submissions) plus an
		// opaque body: a compact block's encoding is internal/relay's
		// concern, not the codec's.
		return binary.AppendUvarint(b, m.Height), m.Payload, nil
	case GetManifest:
		// Empty body.
		return b, nil, nil
	case Manifest, Headers, Subscribe:
		// Opaque bodies. Headers is a run of fixed-width headers whose
		// width is the block model's concern; subscribe is a filter
		// encoding (see internal/light) whose size policy the serve side
		// enforces on top of MaxPayload.
		return b, m.Payload, nil
	case GetChunk:
		return binary.AppendUvarint(b, m.Height), nil, nil
	case GetHeaders, GetData:
		limit := MaxLocator
		if m.Kind == GetData {
			limit = MaxBatch
		}
		if len(m.Hashes) == 0 || len(m.Hashes) > limit {
			return nil, nil, fmt.Errorf("wire: %d hashes out of range for kind %d", len(m.Hashes), m.Kind)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Hashes)))
		for i := range m.Hashes {
			b = append(b, m.Hashes[i][:]...)
		}
		return b, nil, nil
	case TxAck:
		b = binary.AppendUvarint(b, m.Height)
		b = append(b, m.Code)
		return append(b, m.Hash[:]...), nil, nil
	case GetBlockTxn, BlockTxn:
		// The block hash names the announcement being filled; the body
		// (index list or transaction run) is internal/relay's concern.
		return append(b, m.Hash[:]...), m.Payload, nil
	case SubUpdate:
		// Push notification: block height + hash + matched-tx count +
		// flags byte (bit 0: notifications were dropped since the last
		// delivery, the subscriber should poll).
		b = binary.AppendUvarint(b, m.Height)
		b = append(b, m.Hash[:]...)
		b = binary.AppendUvarint(b, m.Count)
		return append(b, m.Code), nil, nil
	case GetLightBlock:
		return append(b, m.Hash[:]...), nil, nil
	case LightBlock:
		// Height plus the full proof-carrying block bytes; an empty
		// payload means "unavailable" (a real block always has at least
		// a header), so the requester re-resolves instead of timing out.
		b = append(b, m.Hash[:]...)
		return binary.AppendUvarint(b, m.Height), m.Payload, nil
	default:
		return nil, nil, fmt.Errorf("wire: cannot encode message kind %d", m.Kind)
	}
}

// Read reads and decodes one message. On an unrecognized kind it
// returns a Message holding just the kind together with
// ErrUnknownKind; the body has been consumed and the stream is intact.
func Read(r *bufio.Reader) (*Message, error) {
	m, _, err := ReadCounted(r)
	return m, err
}

// ReadCounted is Read returning the full frame size in bytes (kind
// byte + length varint + body), the mirror of WriteCounted for
// per-kind traffic accounting. The count is valid whenever a kind was
// read — including the ErrUnknownKind case, whose body has still been
// consumed off the stream.
func ReadCounted(r *bufio.Reader) (*Message, int, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, 0, err
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: bad frame length: %w", err)
	}
	if size > MaxPayload {
		return nil, 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, fmt.Errorf("wire: truncated frame: %w", err)
	}
	var lenbuf [10]byte
	frame := 1 + len(binary.AppendUvarint(lenbuf[:0], size)) + len(body)
	m, err := decodeBody(kind, body)
	if err != nil && !errors.Is(err, ErrUnknownKind) {
		return nil, frame, err
	}
	return m, frame, err
}

// decodeBody parses one frame body into a Message.
func decodeBody(kind byte, body []byte) (*Message, error) {
	m := &Message{Kind: kind}
	switch kind {
	case Hello:
		h, n := varint.Uvarint(body)
		switch {
		case n <= 0:
			return nil, fmt.Errorf("wire: malformed hello")
		case n == len(body):
			// Legacy peer: no feature byte, no features.
		default:
			m.Features = body[n]
			rest := body[n+1:]
			if m.Features&FeatureForkChoice != 0 {
				wl, wn := varint.Uvarint(rest)
				if wn <= 0 || wl > MaxTipWork || uint64(len(rest)) < uint64(wn)+wl {
					return nil, fmt.Errorf("wire: malformed hello tip work")
				}
				m.TipWork = rest[wn : uint64(wn)+wl]
				rest = rest[uint64(wn)+wl:]
			}
			if m.Features&FeatureCompactRelay != 0 {
				if len(rest) < 8 {
					return nil, fmt.Errorf("wire: malformed hello relay nonce")
				}
				m.Nonce = binary.LittleEndian.Uint64(rest)
				rest = rest[8:]
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("wire: malformed hello")
			}
		}
		m.Height = h
	case Inv:
		h, n := varint.Uvarint(body)
		if n <= 0 || len(body) != n+hashx.Size {
			return nil, fmt.Errorf("wire: malformed inv")
		}
		m.Height = h
		copy(m.Hash[:], body[n:])
	case GetBlocks:
		from, n := varint.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("wire: malformed getblocks")
		}
		count, n2 := varint.Uvarint(body[n:])
		if n2 <= 0 || n+n2 != len(body) {
			return nil, fmt.Errorf("wire: malformed getblocks")
		}
		if count == 0 || count > MaxBatch {
			return nil, fmt.Errorf("wire: getblocks count %d out of range", count)
		}
		m.Height, m.Count = from, count
	case Block:
		h, n := varint.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("wire: malformed block message")
		}
		m.Height = h
		m.Payload = body[n:]
	case GetManifest:
		if len(body) != 0 {
			return nil, fmt.Errorf("wire: malformed getmanifest")
		}
	case Manifest:
		m.Payload = body
	case GetChunk:
		h, err := oneUvarint(body)
		if err != nil {
			return nil, err
		}
		m.Height = h
	case Chunk:
		h, n := varint.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("wire: malformed chunk message")
		}
		m.Height = h
		m.Payload = body[n:]
	case GetHeaders, GetData:
		limit := uint64(MaxLocator)
		if kind == GetData {
			limit = MaxBatch
		}
		count, n := varint.Uvarint(body)
		if n <= 0 || count == 0 || count > limit || uint64(len(body)) != uint64(n)+count*hashx.Size {
			return nil, fmt.Errorf("wire: malformed hash list for kind %d", kind)
		}
		m.Hashes = make([]hashx.Hash, count)
		for i := range m.Hashes {
			copy(m.Hashes[i][:], body[n+i*hashx.Size:])
		}
	case Headers:
		m.Payload = body
	case Tx:
		h, n := varint.Uvarint(body)
		if n <= 0 || n == len(body) {
			return nil, fmt.Errorf("wire: malformed tx message")
		}
		m.Height = h
		m.Payload = body[n:]
	case TxAck:
		h, n := varint.Uvarint(body)
		if n <= 0 || len(body) != n+1+hashx.Size {
			return nil, fmt.Errorf("wire: malformed txack")
		}
		m.Height = h
		m.Code = body[n]
		copy(m.Hash[:], body[n+1:])
	case CmpctBlock:
		h, n := varint.Uvarint(body)
		if n <= 0 || n == len(body) {
			return nil, fmt.Errorf("wire: malformed cmpctblock")
		}
		m.Height = h
		m.Payload = body[n:]
	case GetBlockTxn, BlockTxn:
		if len(body) < hashx.Size {
			return nil, fmt.Errorf("wire: malformed relay message for kind %d", kind)
		}
		copy(m.Hash[:], body)
		m.Payload = body[hashx.Size:]
	case Subscribe:
		m.Payload = body
	case SubUpdate:
		h, n := varint.Uvarint(body)
		if n <= 0 || len(body) < n+hashx.Size {
			return nil, fmt.Errorf("wire: malformed subupdate")
		}
		m.Height = h
		copy(m.Hash[:], body[n:])
		rest := body[n+hashx.Size:]
		c, cn := varint.Uvarint(rest)
		if cn <= 0 || len(rest) != cn+1 {
			return nil, fmt.Errorf("wire: malformed subupdate")
		}
		m.Count = c
		m.Code = rest[cn]
	case GetLightBlock:
		if len(body) != hashx.Size {
			return nil, fmt.Errorf("wire: malformed getlightblock")
		}
		copy(m.Hash[:], body)
	case LightBlock:
		if len(body) < hashx.Size {
			return nil, fmt.Errorf("wire: malformed lightblock")
		}
		copy(m.Hash[:], body)
		h, n := varint.Uvarint(body[hashx.Size:])
		if n <= 0 {
			return nil, fmt.Errorf("wire: malformed lightblock")
		}
		m.Height = h
		m.Payload = body[hashx.Size+n:]
	default:
		return m, ErrUnknownKind
	}
	return m, nil
}

func oneUvarint(b []byte) (uint64, error) {
	v, n := varint.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("wire: malformed varint field")
	}
	return v, nil
}
