package core

import (
	"fmt"

	"graphpi/internal/graph"
	"graphpi/internal/restrict"
)

// Tier selects the executor for counting runs. The engine has two (paper
// Figure 3 compiles every configuration to one loop nest; we interpret that
// nest and keep one hand-written kernel beside it):
//
//	interpret — the loop-program interpreter (engine.go); always
//	            available, the only executor that can enumerate.
//	generated — the word-parallel clique kernel (codegen.Clique: one bit
//	            matrix per root, AND/popcount below it), used when the
//	            planned configuration is a total-order-restricted clique of
//	            any size >= 3. The name is historical: the tier used to be a
//	            suite of generated sources.
//
// Both return bit-identical counts; they differ only in speed.
type Tier uint8

const (
	// TierAuto (the default) counts on the clique kernel when the
	// configuration is a total-order clique, else on the interpreter.
	// Enumeration always interprets.
	TierAuto Tier = iota
	// TierInterpret forces the interpreter.
	TierInterpret
	// TierCompiled named the removed runtime-compiled closure tier.
	//
	// Deprecated: it resolves to the interpreter.
	TierCompiled
	// TierGenerated forces the clique kernel; runs of any other
	// configuration fall back to the interpreter (CompileTier reports the
	// mismatch for callers that must surface it).
	TierGenerated
)

func (t Tier) String() string {
	switch t {
	case TierInterpret:
		return "interpreted"
	case TierCompiled:
		return "compiled"
	case TierGenerated:
		return "generated"
	default:
		return "auto"
	}
}

// CompileTier reports the executor a counting run with the given request
// uses (Bound.Tier), for callers that must surface an unsatisfiable request:
// an explicit TierGenerated on a configuration that is no clique errors
// instead of falling back. A configuration is ready to run on either executor
// once NewConfig returns, so nothing is built per graph; the graph and the
// IEP flag are accepted for the callers that still pass them.
func (c *Config) CompileTier(_ *graph.Graph, _ bool, tier Tier) (Tier, error) {
	if tier == TierGenerated && !c.clique {
		return TierInterpret, fmt.Errorf("core: no clique kernel for %s (the generated tier covers complete patterns of 3 or more vertices under a total-order restriction set)",
			c.Pattern)
	}
	return c.Bind(false, tier).Tier(), nil
}

// detectCliqueKernel decides at configuration-compile time whether the
// clique kernel may substitute for this configuration: the relabeled pattern
// must be a complete graph on three or more vertices, and the restriction
// windows' transitive closure must order every position pair exactly one
// way. Under a total order exactly one ordering of each clique passes the
// restrictions, so the kernel's fixed descending order counts the same set —
// regardless of which total order the planner picked. (This also makes the
// substitution valid for k > perm.MaxTableDegree, where the coset verification
// cannot run.)
func (c *Config) detectCliqueKernel(w restrict.Windows) {
	n := c.n
	if n < 3 {
		return
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !c.relabeled.HasEdge(i, j) {
				return
			}
		}
	}
	c.clique = w.TotalOrder()
}
