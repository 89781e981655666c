// Package ebv is the public API of the EBV reproduction: an efficient
// block validation mechanism for UTXO-based blockchains (Dai, Xiao,
// Xiao, Jin — IPDPS 2022), together with the complete substrate it is
// evaluated against — a Bitcoin-style baseline validator over an
// LSM-tree UTXO database, a synthetic mainnet workload, the
// intermediary chain reconstructor, and a gossip-network simulator.
//
// The package re-exports the load-bearing types and constructors from
// the internal implementation packages, so applications depend only on
// this import path:
//
//	import "ebv"
//
//	gen := ebv.NewGenerator(ebv.TestWorkload(500))
//	inter, _ := ebv.NewIntermediary(dir, gen.Resign)
//	node, _ := ebv.NewEBVNode(ebv.NodeConfig{Dir: nodeDir})
//	for !gen.Done() {
//		cb, _ := gen.NextBlock()
//		eb, _ := inter.ProcessBlock(cb)
//		breakdown, err := node.SubmitBlock(eb)
//		...
//	}
//
// See examples/ for runnable programs and internal/bench for the
// experiment harness that regenerates every figure of the paper.
package ebv

import (
	"ebv/internal/accumulator"
	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/core"
	"ebv/internal/hashx"
	"ebv/internal/mempool"
	"ebv/internal/merkle"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/simnet"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// --- primitives ---

// Hash is a 32-byte digest (block ids, txids, Merkle nodes).
type Hash = hashx.Hash

// Sum computes SHA-256; DoubleSum the Bitcoin-style double SHA-256.
var (
	Sum       = hashx.Sum
	DoubleSum = hashx.DoubleSum
)

// MerkleBranch is the MBr existence proof carried by EBV inputs.
type MerkleBranch = merkle.Branch

// MerkleRoot computes the root over leaf digests; MerkleVerify checks
// a branch against a root.
var (
	MerkleRoot   = merkle.Root
	MerkleVerify = merkle.Verify
)

// --- transactions and blocks ---

// OutPoint, TxIn, TxOut, Tx are the classic (Bitcoin-style)
// transaction structures; TidyTx, InputBody, EBVTx are the paper's.
type (
	OutPoint  = txmodel.OutPoint
	TxIn      = txmodel.TxIn
	TxOut     = txmodel.TxOut
	Tx        = txmodel.Tx
	TidyTx    = txmodel.TidyTx
	InputBody = txmodel.InputBody
	EBVTx     = txmodel.EBVTx
)

// Header, ClassicBlock and EBVBlock are the block structures.
type (
	Header       = blockmodel.Header
	ClassicBlock = blockmodel.ClassicBlock
	EBVBlock     = blockmodel.EBVBlock
)

// AssembleClassicBlock and AssembleEBVBlock package transactions into
// blocks; the EBV assembler assigns stake positions and commits them
// under the Merkle root.
var (
	AssembleClassicBlock = blockmodel.AssembleClassic
	AssembleEBVBlock     = blockmodel.AssembleEBV
	Subsidy              = blockmodel.Subsidy
)

// --- signatures and scripts ---

// SignatureScheme verifies unlocking-script signatures. SimSig is the
// calibrated hash-based scheme used for large replays; ECDSA is the
// stdlib P-256 scheme.
type (
	SignatureScheme = sig.Scheme
	PrivateKey      = sig.PrivateKey
	SimSig          = sig.SimSig
	ECDSA           = sig.ECDSA
)

// ScriptEngine executes unlocking+locking script pairs.
type ScriptEngine = script.Engine

// NewScriptEngine builds a script VM over a signature scheme.
var NewScriptEngine = script.NewEngine

// Standard P2PKH script builders.
var (
	StandardLock   = script.StandardLock
	StandardUnlock = script.StandardUnlock
	PayToPubKey    = script.PayToPubKey
	PayToMultisig  = script.PayToMultisig
)

// --- chain storage and status data ---

// ChainStore is flat-file block storage with an in-memory header
// index.
type ChainStore = chainstore.Store

// OpenChainStore opens or creates a chain directory.
var OpenChainStore = chainstore.Open

// StatusDB is EBV's bit-vector set; BitcoinNode's UTXO set lives
// behind NodeConfig instead.
type StatusDB = statusdb.DB

// NewStatusDB creates an empty bit-vector set, stored in the paper's
// sparse-optimized encoding.
var NewStatusDB = statusdb.New

// --- validators and nodes ---

// Breakdown reports where a block's validation time went
// (DBO/EV/UV/SV/Other).
type Breakdown = core.Breakdown

// Validators, for embedding in custom nodes.
type (
	BitcoinValidator = core.BitcoinValidator
	EBVValidator     = core.EBVValidator
)

var (
	NewBitcoinValidator = core.NewBitcoinValidator
	NewEBVValidator     = core.NewEBVValidator
	// WithParallelValidation runs the full proof-verification pipeline
	// (consistency, sighash, EV and SV) on N goroutines per block with
	// deterministic failure reporting — the paper's future-work
	// direction (§VI-D). Also available on nodes via
	// NodeConfig.ParallelValidation.
	WithParallelValidation = core.WithParallelValidation
)

// Validation errors: ErrInvalidBlock is the root every validator
// error wraps; the named sub-errors classify the paper's attack cases.
var (
	ErrInvalidBlock  = core.ErrInvalidBlock
	ErrMissingOutput = core.ErrMissingOutput
	ErrSpentOutput   = core.ErrSpentOutput
	ErrScriptFailed  = core.ErrScriptFailed
	ErrBadProof      = core.ErrBadProof
)

// NodeConfig configures full nodes; BitcoinNode and EBVNode are the
// two systems under comparison.
type (
	NodeConfig  = node.Config
	BitcoinNode = node.BitcoinNode
	EBVNode     = node.EBVNode
	IBDResult   = node.IBDResult
	PeriodStats = node.PeriodStats
)

var (
	NewBitcoinNode = node.NewBitcoinNode
	NewEBVNode     = node.NewEBVNode
	RunIBDBitcoin  = node.RunIBDBitcoin
	RunIBDEBV      = node.RunIBDEBV
)

// --- proofs and the intermediary ---

// ProofBuilder extracts MBr/ELs proofs from an EBV chain; TxLoc names
// a transaction by (height, index); Intermediary reconstructs a
// classic chain as an EBV chain (paper §VI-A).
type (
	ProofBuilder = proof.Builder
	TxLoc        = proof.Loc
	Intermediary = proof.Intermediary
)

var (
	NewProofBuilder = proof.NewBuilder
	NewIntermediary = proof.NewIntermediary
)

// --- workload ---

// WorkloadParams parameterizes the synthetic mainnet model; Generator
// produces the classic chain and ground truth.
type (
	WorkloadParams = workload.Params
	Generator      = workload.Generator
)

var (
	NewGenerator    = workload.NewGenerator
	DefaultWorkload = workload.DefaultParams
	TestWorkload    = workload.TestParams
	OutputKeySeed   = workload.KeySeed
	QuarterLabel    = workload.QuarterLabel
	// MainnetInputsPerBlock evaluates the activity model: average
	// inputs per mainnet block at a height (used to scale measured
	// validation times to paper-size blocks).
	MainnetInputsPerBlock = workload.MainnetInputsPerBlock
)

// --- mempool and gossip ---

// Mempool holds validated, unmined EBV transactions and builds block
// templates; MempoolConfig bounds it.
type (
	Mempool       = mempool.Pool
	MempoolConfig = mempool.Config
)

// NewMempool creates a pool admitting against a validator's state.
var NewMempool = mempool.New

// GossipNode exchanges blocks with peers over TCP, validating each
// block before storing and forwarding it; GossipConfig configures it.
// EBVGossipChain / BitcoinGossipChain adapt the node types.
type (
	GossipNode         = p2p.Node
	GossipConfig       = p2p.Config
	EBVGossipChain     = p2p.EBVChain
	BitcoinGossipChain = p2p.BitcoinChain
)

// NewGossipNode wraps a chain for gossip.
var NewGossipNode = p2p.NewNode

// --- related-work baseline ---

// AccumulatorForest is the Utreexo-style dynamic Merkle accumulator
// used as the related-work comparison baseline (paper §VII-B);
// AccumulatorProof is its membership proof. Unlike EBV's MBr, these
// proofs expire on every accumulator update.
type (
	AccumulatorForest = accumulator.Forest
	AccumulatorProof  = accumulator.Proof
)

// AccumulatorVerify checks a membership proof against a forest root.
var AccumulatorVerify = accumulator.Verify

// --- network simulation ---

// SimnetConfig and friends drive the propagation-delay simulator
// (paper §VI-E).
type (
	SimnetConfig = simnet.Config
	SimnetResult = simnet.Result
)

var (
	SimnetRun       = simnet.Run
	SimnetRepeat    = simnet.Repeat
	SimnetSummarize = simnet.Summarize
)

// FixedValidation and NormalValidation model per-hop validation
// delays.
type (
	FixedValidation  = simnet.Fixed
	NormalValidation = simnet.Normal
)
