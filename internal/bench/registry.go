package bench

import (
	"fmt"
	"io"
	"strings"
)

// Experiment names one reproducible paper artifact.
type Experiment struct {
	ID    string // e.g. "fig14"
	Title string
	Run   func(*Env, io.Writer) error
}

// Experiments lists every table/figure reproduction, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "UTXO count and UTXO-set size by quarter", (*Env).Fig1},
		{"fig4", "Bitcoin block validation time breakdown (4a) and inputs vs DBO/SV (4b)", (*Env).Fig4},
		{"fig5", "Bitcoin IBD time per period with DBO share", (*Env).Fig5},
		{"fig14", "Memory requirement: Bitcoin vs EBV vs EBV-no-opt", (*Env).Fig14},
		{"fig14full", "Fig 14 at full block size (sparse-vector headroom)", (*Env).Fig14Full},
		{"fig15", "EBV input count vs validation time", (*Env).Fig15},
		{"fig16", "Validation time Bitcoin vs EBV (16a) and EBV components (16b)", (*Env).Fig16},
		{"fig17", "IBD time Bitcoin vs EBV with repeats (17a) and EBV components (17b)", (*Env).Fig17},
		{"fig18", "Block propagation delay over the gossip network", (*Env).Fig18},
		{"ablation-dbcache", "Baseline IBD vs memory budget", (*Env).AblationDBCache},
		{"ablation-simcost", "EBV validation vs signature-verify cost", (*Env).AblationSimCost},
		{"ablation-latency", "Baseline IBD vs disk model", (*Env).AblationLatency},
		{"ablation-vector", "Sparse-vector optimization detail", (*Env).AblationVector},
		{"ablation-parallel", "EBV window validation vs parallel pipeline workers", (*Env).AblationParallel},
		{"ablation-bootstrap", "Joining node: full IBD vs fast-bootstrap state sync", (*Env).AblationBootstrap},
		{"ablation-ibdpipe", "Cross-block pipelined IBD vs depth and workers", (*Env).AblationIBDPipe},
		{"ablation-reorg", "Reorg cost vs depth: EBV body restores vs baseline undo records", (*Env).AblationReorg},
		{"related-proofs", "Proof size/churn: EBV vs accumulator designs", (*Env).RelatedProofs},
		{"net-ibd", "Networked IBD over the gossip protocol", (*Env).NetIBD},
	}
}

// RunByID runs one experiment ("fig14"), several (comma-separated),
// "all" (every figure), or "everything" (figures plus ablations).
func RunByID(e *Env, id string, w io.Writer) error {
	if id == "all" || id == "everything" {
		for _, ex := range Experiments() {
			if id == "all" && strings.HasPrefix(ex.ID, "ablation") {
				continue
			}
			if err := ex.Run(e, w); err != nil {
				return fmt.Errorf("%s: %w", ex.ID, err)
			}
		}
		return nil
	}
	for _, one := range strings.Split(id, ",") {
		found := false
		for _, ex := range Experiments() {
			if ex.ID == one {
				if err := ex.Run(e, w); err != nil {
					return fmt.Errorf("%s: %w", ex.ID, err)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bench: unknown experiment %q (use %s or all)", one, IDList())
		}
	}
	return nil
}

// IDList is every registered experiment id, comma-separated.
func IDList() string {
	ids := make([]string, 0, len(Experiments()))
	for _, ex := range Experiments() {
		ids = append(ids, ex.ID)
	}
	return strings.Join(ids, ", ")
}
