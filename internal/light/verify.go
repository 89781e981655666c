package light

import (
	"errors"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/script"
)

// Verification errors.
var (
	ErrUnknownHeader = errors.New("light: block header not on the header chain")
	ErrBadBlock      = errors.New("light: invalid block")
)

// VerifyBlock fully validates a serialized EBV block against the
// header chain using only carried proofs — the light-client slice of
// the paper's validation mechanism. The block's header must be the
// chain's stored header at its height, which anchors the block to the
// PoW-checked chain; the rest is core.VerifyWithoutUV against the
// headers below it: structure, proof of work, stake positions, the
// Merkle root, per-input EV and SV, intra-block duplicate spends,
// coinbase maturity, value conservation and the subsidy.
//
// What is deliberately absent is Unspent Validation: the bit-vector
// set lives on full nodes only, so a light client cannot see a double
// spend against history outside this block. Everything else is the
// full validator's verdict, wrapped in ErrBadBlock.
func VerifyBlock(hc *HeaderChain, raw []byte, eng *script.Engine) (*blockmodel.EBVBlock, error) {
	b, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	stored, ok := hc.Header(b.Header.Height)
	if !ok || stored.Hash() != b.Header.Hash() {
		return nil, ErrUnknownHeader
	}
	if err := core.VerifyWithoutUV(b, hc, eng); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlock, err)
	}
	return b, nil
}
