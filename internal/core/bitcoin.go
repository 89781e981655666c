package core

import (
	"errors"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/merkle"
	"ebv/internal/script"
	"ebv/internal/txmodel"
	"ebv/internal/utxoset"
)

// BitcoinValidator validates classic blocks against the UTXO set.
type BitcoinValidator struct {
	utxo    *utxoset.Set
	engine  *script.Engine
	headers HeaderSource
}

// NewBitcoinValidator wires the baseline validator to its UTXO set,
// script engine, and header chain.
func NewBitcoinValidator(utxo *utxoset.Set, engine *script.Engine, headers HeaderSource) *BitcoinValidator {
	return &BitcoinValidator{utxo: utxo, engine: engine, headers: headers}
}

// ConnectBlock fully validates b as the next block and applies its
// effect to the UTXO set. On any validation failure the set is left
// untouched and the returned Breakdown covers the work done up to the
// failure.
func (v *BitcoinValidator) ConnectBlock(b *blockmodel.ClassicBlock) (*Breakdown, error) {
	bd, _, err := v.ConnectBlockUndo(b)
	return bd, err
}

// ConnectBlockUndo is ConnectBlock, additionally returning the spent
// entries as undo data for a later DisconnectBlock (Bitcoin's undo
// files).
func (v *BitcoinValidator) ConnectBlockUndo(b *blockmodel.ClassicBlock) (*Breakdown, []utxoset.SpentEntry, error) {
	bd := &Breakdown{Txs: len(b.Txs), Inputs: b.TotalInputs(), Outputs: b.TotalOutputs()}
	w := newStopwatch()

	// Structural checks: linkage, merkle root, coinbase placement.
	if err := v.checkStructure(b); err != nil {
		w.lap(&bd.Other)
		return bd, nil, err
	}
	w.lap(&bd.Other)

	var spends []utxoset.SpentEntry
	var adds []utxoset.Addition
	seen := make(map[txmodel.OutPoint]struct{}, bd.Inputs)
	var totalFees uint64

	for ti, tx := range b.Txs {
		if ti == 0 {
			for oi := range tx.Outputs {
				adds = append(adds, utxoset.Addition{
					OutPoint: txmodel.OutPoint{TxID: tx.TxID(), Index: uint32(oi)},
					Entry: utxoset.Entry{
						Value:      tx.Outputs[oi].Value,
						LockScript: tx.Outputs[oi].LockScript,
						Height:     b.Header.Height,
						Coinbase:   true,
					},
				})
			}
			w.lap(&bd.Other)
			continue
		}
		if tx.IsCoinbase() {
			w.lap(&bd.Other)
			return bd, nil, fmt.Errorf("%w: tx %d", ErrExtraCoinbase, ti)
		}
		sigHash := tx.SigHash()
		w.lap(&bd.Other)

		var inSum uint64
		for ii := range tx.Inputs {
			in := &tx.Inputs[ii]
			if _, dup := seen[in.PrevOut]; dup {
				return bd, nil, fmt.Errorf("%w: %s", ErrDuplicateSpend, in.PrevOut)
			}
			seen[in.PrevOut] = struct{}{}
			w.lap(&bd.Other)

			// Fetch = EV + UV in one database lookup (paper Fig. 3).
			entry, err := v.utxo.Fetch(in.PrevOut)
			w.lap(&bd.DBO)
			if err != nil {
				if errors.Is(err, utxoset.ErrMissing) {
					return bd, nil, fmt.Errorf("%w: tx %d input %d (%s)", ErrMissingOutput, ti, ii, in.PrevOut)
				}
				return bd, nil, err
			}
			if entry.Coinbase && b.Header.Height-entry.Height < txmodel.CoinbaseMaturity {
				w.lap(&bd.Other)
				return bd, nil, fmt.Errorf("%w: tx %d input %d", ErrImmature, ti, ii)
			}
			if inSum+entry.Value < inSum {
				w.lap(&bd.Other)
				return bd, nil, fmt.Errorf("%w: tx %d", ErrOverflow, ti)
			}
			inSum += entry.Value
			w.lap(&bd.Other)

			// SV: unlocking script against the fetched locking script.
			if err := v.engine.Execute(in.UnlockScript, entry.LockScript, sigHash); err != nil {
				w.lap(&bd.SV)
				return bd, nil, fmt.Errorf("%w: tx %d input %d: %v", ErrScriptFailed, ti, ii, err)
			}
			w.lap(&bd.SV)

			spends = append(spends, utxoset.SpentEntry{OutPoint: in.PrevOut, Entry: *entry})
			w.lap(&bd.Other)
		}

		outSum, ok := tx.OutputSum()
		if !ok {
			w.lap(&bd.Other)
			return bd, nil, fmt.Errorf("%w: tx %d", ErrOverflow, ti)
		}
		if outSum > inSum {
			w.lap(&bd.Other)
			return bd, nil, fmt.Errorf("%w: tx %d spends %d, creates %d", ErrValueImbalance, ti, inSum, outSum)
		}
		fee := inSum - outSum
		if totalFees+fee < totalFees {
			w.lap(&bd.Other)
			return bd, nil, fmt.Errorf("%w: fees", ErrOverflow)
		}
		totalFees += fee

		txid := tx.TxID()
		for oi := range tx.Outputs {
			adds = append(adds, utxoset.Addition{
				OutPoint: txmodel.OutPoint{TxID: txid, Index: uint32(oi)},
				Entry: utxoset.Entry{
					Value:      tx.Outputs[oi].Value,
					LockScript: tx.Outputs[oi].LockScript,
					Height:     b.Header.Height,
				},
			})
		}
		w.lap(&bd.Other)
	}

	// Coinbase value rule.
	cbSum, ok := b.Txs[0].OutputSum()
	if !ok {
		w.lap(&bd.Other)
		return bd, nil, fmt.Errorf("%w: coinbase", ErrOverflow)
	}
	if cbSum > blockmodel.Subsidy(b.Header.Height)+totalFees {
		w.lap(&bd.Other)
		return bd, nil, fmt.Errorf("%w: claims %d, allowed %d", ErrBadSubsidy, cbSum, blockmodel.Subsidy(b.Header.Height)+totalFees)
	}
	w.lap(&bd.Other)

	// Delete + Insert: the remaining DBO.
	if err := v.utxo.Update(spends, adds); err != nil {
		w.lap(&bd.DBO)
		return bd, nil, err
	}
	w.lap(&bd.DBO)
	return bd, spends, nil
}

func (v *BitcoinValidator) checkStructure(b *blockmodel.ClassicBlock) error {
	tip, hasTip := v.headers.TipHeight()
	switch {
	case !hasTip:
		if b.Header.Height != 0 {
			return fmt.Errorf("%w: genesis must have height 0", ErrBadLink)
		}
	case b.Header.Height != tip+1:
		return fmt.Errorf("%w: height %d after tip %d", ErrBadLink, b.Header.Height, tip)
	default:
		prev, _ := v.headers.Header(tip)
		if b.Header.PrevBlock != prev.Hash() {
			return fmt.Errorf("%w: prev hash mismatch", ErrBadLink)
		}
	}
	if len(b.Txs) == 0 || !b.Txs[0].IsCoinbase() {
		return ErrNoCoinbase
	}
	if b.TotalOutputs() > blockmodel.MaxBlockOutputs {
		return fmt.Errorf("%w: too many outputs", ErrInvalidBlock)
	}
	if !b.Header.MeetsTarget() {
		return fmt.Errorf("%w: proof of work", ErrInvalidBlock)
	}
	if merkle.Root(b.TxLeaves()) != b.Header.MerkleRoot {
		return ErrBadMerkleRoot
	}
	return nil
}

// DisconnectBlock reverses the tip block during a reorg: the outputs
// it created are deleted from the UTXO set and the entries it spent —
// supplied as undo data captured by ConnectBlockUndo — are
// re-inserted. b must be the block at the validator's tip.
func (v *BitcoinValidator) DisconnectBlock(b *blockmodel.ClassicBlock, undo []utxoset.SpentEntry) error {
	tip, ok := v.headers.TipHeight()
	if !ok || b.Header.Height != tip {
		return fmt.Errorf("%w: disconnect height %d at tip %d", ErrBadLink, b.Header.Height, tip)
	}
	hdr, _ := v.headers.Header(tip)
	if hdr.Hash() != b.Header.Hash() {
		return fmt.Errorf("%w: block is not the stored tip", ErrBadLink)
	}
	// Remove the block's outputs...
	var created []utxoset.SpentEntry
	for ti, tx := range b.Txs {
		txid := tx.TxID()
		for oi := range tx.Outputs {
			created = append(created, utxoset.SpentEntry{
				OutPoint: txmodel.OutPoint{TxID: txid, Index: uint32(oi)},
				Entry: utxoset.Entry{
					Value:      tx.Outputs[oi].Value,
					LockScript: tx.Outputs[oi].LockScript,
					Height:     b.Header.Height,
					Coinbase:   ti == 0,
				},
			})
		}
	}
	// ...and restore what it spent.
	adds := make([]utxoset.Addition, len(undo))
	for i := range undo {
		adds[i] = utxoset.Addition{OutPoint: undo[i].OutPoint, Entry: undo[i].Entry}
	}
	return v.utxo.Update(created, adds)
}
