package txmodel

import "ebv/internal/hashx"

// Digest memoization (Tier 2 of the verification cache): LeafHash,
// InputBody.Hash and SigHash are each deterministic functions of their
// struct's canonical encoding, yet the validation path needs some of
// them more than once per transaction (the sighash preimage and EV both
// hash the nested ELs; the proof cache keys on the body hash the
// consistency binding already computed). The memo fills lazily on first
// use, so freshly decoded transactions always hash their actual bytes.
//
// Concurrency contract: a transaction is owned by a single goroutine
// until its memos are filled (the parallel pipeline hands each
// transaction to exactly one worker), after which concurrent reads are
// safe. Mutation contract: code that mutates a struct in place after
// hashing it must call its Invalidate method — only builders and tests
// mutate in place; the wire-decode path never does.

// memoHash is a lazily filled digest. The zero value is empty; it is
// carried by value when its owner is copied, which stays correct
// because the memo is a pure function of the owner's encoded fields.
type memoHash struct {
	h   hashx.Hash
	set bool
}

func (m *memoHash) get() (hashx.Hash, bool) { return m.h, m.set }

func (m *memoHash) put(h hashx.Hash) { m.h, m.set = h, true }

func (m *memoHash) clear() { m.set = false }
