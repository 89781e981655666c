package chainstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
)

// refChain is the reference model for the store's hash index: the
// chain as a list of hashes and bodies (nil for a header-only record),
// resolved by a full-hash map.
type refChain struct {
	hashes []hashx.Hash
	bodies [][]byte
	dead   []hashx.Hash // hashes truncated away, for negative lookups
}

func (r *refChain) heightOf(h hashx.Hash) (uint64, bool) {
	for i, x := range r.hashes {
		if x == h {
			return uint64(i), true
		}
	}
	return 0, false
}

// TestHashIndexMatchesReference drives random sequences of Append,
// AppendHeader, Truncate and reopen, and after every step compares
// HeightByHash, LocatorFork, HasBody and BlockBytes with the
// reference. The degenerate keys put most heights in the collision
// map, so both halves of the index and their hand-over under Truncate
// are exercised.
func TestHashIndexMatchesReference(t *testing.T) {
	keys := map[string]func(hashx.Hash) uint32{
		"default":   hashKey,
		"eight":     func(h hashx.Hash) uint32 { return uint32(h[hashx.Size-1] & 7) },
		"one-key":   func(hashx.Hash) uint32 { return 0 },
		"first-bit": func(h hashx.Hash) uint32 { return uint32(h[0] >> 7) },
	}
	for name, key := range keys {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runIndexSequence(t, key, seed)
			}
		})
	}
}

func runIndexSequence(t *testing.T, key func(hashx.Hash) uint32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	s, err := open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	ref := &refChain{}

	appendOne := func(withBody bool) {
		prev := hashx.ZeroHash
		if n := len(ref.hashes); n > 0 {
			prev = ref.hashes[n-1]
		}
		var root hashx.Hash
		rng.Read(root[:])
		h := blockmodel.Header{Version: 1, Height: uint64(len(ref.hashes)), PrevBlock: prev, MerkleRoot: root}
		var body []byte
		if withBody {
			body = make([]byte, 1+rng.Intn(40))
			rng.Read(body)
			err = s.Append(h, body)
		} else {
			err = s.AppendHeader(h)
		}
		if err != nil {
			t.Fatalf("seed %d: append height %d: %v", seed, h.Height, err)
		}
		ref.hashes = append(ref.hashes, h.Hash())
		ref.bodies = append(ref.bodies, body)
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			appendOne(true)
		case op < 7:
			appendOne(false)
		case op < 9:
			n := len(ref.hashes)
			count := n - rng.Intn(min(n, 8)+1)
			allowed := count == n ||
				(count > 0 && ref.bodies[count-1] != nil) ||
				(count == 0 && ref.bodies[0] != nil)
			err := s.Truncate(count)
			if allowed != (err == nil) {
				t.Fatalf("seed %d step %d: Truncate(%d) of %d: err=%v, reference allows=%v", seed, step, count, n, err, allowed)
			}
			if err != nil && !errors.Is(err, ErrTruncateNoBody) {
				t.Fatalf("seed %d step %d: Truncate(%d): %v", seed, step, count, err)
			}
			if err == nil {
				ref.dead = append(ref.dead, ref.hashes[count:]...)
				ref.hashes = ref.hashes[:count]
				ref.bodies = ref.bodies[:count]
			}
		default:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = open(dir, key); err != nil {
				t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
			}
		}
		checkAgainstReference(t, s, ref, rng, seed, step)
	}
}

func checkAgainstReference(t *testing.T, s *Store, ref *refChain, rng *rand.Rand, seed int64, step int) {
	t.Helper()
	if s.Count() != len(ref.hashes) {
		t.Fatalf("seed %d step %d: Count=%d, reference %d", seed, step, s.Count(), len(ref.hashes))
	}
	var missing hashx.Hash
	rng.Read(missing[:])
	probes := append(append(append([]hashx.Hash(nil), ref.hashes...), ref.dead...), missing)
	for _, h := range probes {
		gh, gok := s.HeightByHash(h)
		wh, wok := ref.heightOf(h)
		if gok != wok || gh != wh {
			t.Fatalf("seed %d step %d: HeightByHash(%s)=(%d,%v), reference (%d,%v)", seed, step, h.Short(), gh, gok, wh, wok)
		}
	}
	for i := 0; i < 4; i++ {
		loc := make([]hashx.Hash, rng.Intn(6))
		for j := range loc {
			loc[j] = probes[rng.Intn(len(probes))]
		}
		gh, gok := s.LocatorFork(loc)
		var wh uint64
		wok := false
		for _, h := range loc {
			if wh, wok = ref.heightOf(h); wok {
				break
			}
		}
		if gok != wok || gh != wh {
			t.Fatalf("seed %d step %d: LocatorFork=(%d,%v), reference (%d,%v)", seed, step, gh, gok, wh, wok)
		}
	}
	for i, body := range ref.bodies {
		if got := s.HasBody(uint64(i)); got != (body != nil) {
			t.Fatalf("seed %d step %d: HasBody(%d)=%v, reference %v", seed, step, i, got, body != nil)
		}
		got, err := s.BlockBytes(uint64(i))
		if body == nil {
			if !errors.Is(err, ErrNoBody) {
				t.Fatalf("seed %d step %d: BlockBytes(%d) err=%v, want ErrNoBody", seed, step, i, err)
			}
		} else if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("seed %d step %d: BlockBytes(%d)=%x, %v; want %x", seed, step, i, got, err, body)
		}
	}
}
