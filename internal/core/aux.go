package core

import (
	"fmt"

	"graphpi/internal/codegen"
	"graphpi/internal/costmodel"
)

// AuxMode selects auxiliary-graph pruning for a run (see internal/auxgraph):
// per-root pruned adjacency rows reused across sibling subtrees in place of
// full-CSR-row intersections. Counts are bit-identical in every mode; the
// choice is purely about speed and scratch memory.
type AuxMode uint8

const (
	// AuxOff (the default) never materializes auxiliary rows.
	AuxOff AuxMode = iota
	// AuxOn enables pruning when the schedule is structurally eligible and
	// the cost model predicts the reuse to clear the build cost
	// (costmodel.EstimateAux); configurations built without planner
	// statistics enable it on structural eligibility alone.
	AuxOn
	// AuxForce enables pruning whenever structurally eligible, bypassing the
	// cost-model gate (benchmarks and equivalence tests).
	AuxForce
)

func (m AuxMode) String() string {
	switch m {
	case AuxOn:
		return "on"
	case AuxForce:
		return "force"
	default:
		return "off"
	}
}

// ParseAuxMode parses an aux mode as accepted by the CLI and the service
// ("off", "on" (also "1"/"true"/"auto"), "force").
func ParseAuxMode(s string) (AuxMode, error) {
	switch s {
	case "", "off", "0", "false":
		return AuxOff, nil
	case "on", "1", "true", "auto":
		return AuxOn, nil
	case "force":
		return AuxForce, nil
	}
	return AuxOff, fmt.Errorf("core: unknown aux mode %q (want off, on or force)", s)
}

// auxStepMode classifies one hoisted intersection's relationship to the
// level-0 auxiliary graph (rows over S = N(v0)).
type auxStepMode uint8

const (
	// auxStepNone: the step cannot use pruned rows (its left operand is not
	// contained in S, or the right vertex may fall outside S).
	auxStepNone auxStepMode = iota
	// auxStepRight: the left operand is a buffer ⊆ S, so the full right row
	// N(v_d) may be replaced by the pruned row N(v_d) ∩ S.
	auxStepRight
	// auxStepCopy: the left operand is N(v0) = S itself, so the output
	// equals the pruned row — a copy replaces the whole intersection.
	auxStepCopy
)

// computeAuxModes classifies every hoisted intersection against the level-0
// auxiliary graph. A step Out = Left ∩ N(v_d) qualifies when v_d is
// guaranteed inside S = N(v0) — the relabeled pattern has edge (d, 0), so
// candidate provenance implies it — and Left ⊆ S: either Left is N(v0)
// itself (LeftParent 0) or a chain buffer whose parent mask includes depth 0
// (plan.BufParents). Classification is structural; whether a run builds the
// rows is decided per run (auxEnabled).
func (c *Config) computeAuxModes() {
	c.auxModes = make([][]auxStepMode, c.n)
	for d := 1; d < c.n; d++ {
		steps := c.plan.Steps[d]
		if len(steps) == 0 {
			continue
		}
		row := make([]auxStepMode, len(steps))
		for i, st := range steps {
			if !c.relabeled.HasEdge(st.Depth, 0) {
				continue
			}
			switch {
			case st.LeftBuf < 0 && st.LeftParent == 0:
				row[i] = auxStepCopy
			case st.LeftBuf >= 0 && st.LeftBuf < len(c.plan.BufParents) &&
				c.plan.BufParents[st.LeftBuf]&1 != 0:
				row[i] = auxStepRight
			}
		}
		c.auxModes[d] = row
	}
}

// auxLastDepth is the deepest level whose hoisted steps execute: the IEP cut
// when the suffix is active, the leaf otherwise.
func (c *Config) auxLastDepth(useIEP bool) int {
	if k := c.effectiveIEPK(); useIEP && k >= 1 {
		return c.n - k - 1
	}
	return c.n - 1
}

// AuxEligible reports whether this configuration has at least one step at
// depth >= 2 that can consume pruned rows — the reuse that justifies
// building an auxiliary graph (depth-1 copies alone are built once and used
// once, so they never carry the build on their own).
func (c *Config) AuxEligible(useIEP bool) bool {
	return c.auxDeepSteps(useIEP) > 0
}

// auxDeepSteps counts the aux-capable steps at depths >= 2 that actually
// execute; the budget allocator scales the per-worker arena with it.
func (c *Config) auxDeepSteps(useIEP bool) int {
	last := c.auxLastDepth(useIEP)
	count := 0
	for d := 2; d <= last && d < len(c.auxModes); d++ {
		for _, m := range c.auxModes[d] {
			if m != auxStepNone {
				count++
			}
		}
	}
	return count
}

// auxStepEligible renders the modes as the neutral boolean shape
// costmodel.EstimateAux consumes.
func (c *Config) auxStepEligible() [][]bool {
	out := make([][]bool, len(c.auxModes))
	for d, row := range c.auxModes {
		if len(row) == 0 {
			continue
		}
		b := make([]bool, len(row))
		for i, m := range row {
			b[i] = m != auxStepNone
		}
		out[d] = b
	}
	return out
}

// AuxPredict exposes the cost model's build-vs-reuse estimate for this
// configuration (explain endpoints and benchmarks); ok is false when the
// configuration carries no planner statistics.
func (c *Config) AuxPredict(useIEP bool) (costmodel.AuxEstimate, bool) {
	if c.planParams == nil {
		return costmodel.AuxEstimate{}, false
	}
	est := costmodel.EstimateAux(c.plan, c.n, c.auxStepEligible(),
		c.auxLastDepth(useIEP), c.PosRestrictions(), *c.planParams)
	return est, true
}

// auxEnabled decides whether a run with the given mode builds auxiliary
// graphs: never when off or structurally ineligible; always when forced;
// under AuxOn the cost model arbitrates when planner statistics exist
// (structural eligibility alone decides for manually built configurations).
func (c *Config) auxEnabled(mode AuxMode, useIEP bool) bool {
	if mode == AuxOff || !c.AuxEligible(useIEP) {
		return false
	}
	if mode == AuxForce {
		return true
	}
	if est, ok := c.AuxPredict(useIEP); ok {
		return est.Worth()
	}
	return true
}

// auxSpecModes renders the modes in codegen's neutral form, truncated to the
// levels that execute, for the interpreter's lowered steps.
func (c *Config) auxSpecModes(useIEP bool) [][]codegen.AuxMode {
	last := c.auxLastDepth(useIEP)
	out := make([][]codegen.AuxMode, c.n)
	for d := 1; d <= last && d < len(c.auxModes); d++ {
		row := c.auxModes[d]
		if len(row) == 0 {
			continue
		}
		cg := make([]codegen.AuxMode, len(row))
		for i, m := range row {
			switch m {
			case auxStepRight:
				cg[i] = codegen.AuxRight
			case auxStepCopy:
				cg[i] = codegen.AuxCopy
			}
		}
		out[d] = cg
	}
	return out
}
