package core

import (
	"fmt"

	"graphpi/internal/codegen"
	"graphpi/internal/costmodel"
	"graphpi/internal/graph"
	"graphpi/internal/restrict"
)

// Tier selects the execution tier for counting runs. The engine offers
// three (paper Figure 3 compiles every configuration; we tier it):
//
//	interpret     — the loop-program interpreter (engine.go); always
//	                available, the only tier that can enumerate.
//	runtime-compile — the configuration compiled to specialized closures
//	                (internal/codegen.Compile): kernel choice frozen from
//	                the cost model, restriction windows baked per level,
//	                monomorphized counting leaves.
//	generated     — the word-parallel clique kernel (codegen.Clique: one
//	                bit matrix per root, AND/popcount below it), used when
//	                the planned configuration is a total-order-restricted
//	                clique of any size >= 3. The name is historical: the
//	                tier used to be a suite of generated sources.
//
// All tiers return bit-identical counts; they differ only in speed.
type Tier uint8

const (
	// TierAuto (the default) counts on the fastest applicable tier:
	// generated when the configuration is a total-order clique, else
	// runtime-compiled. Enumeration always interprets.
	TierAuto Tier = iota
	// TierInterpret forces the interpreter.
	TierInterpret
	// TierCompiled forces runtime compilation to closures.
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

// ParseTier parses a tier name as accepted by the CLI and the service
// ("auto", "interpret"/"interpreted", "compiled", "generated").
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "auto":
		return TierAuto, nil
	case "interpret", "interpreted":
		return TierInterpret, nil
	case "compiled":
		return TierCompiled, nil
	case "generated":
		return TierGenerated, nil
	}
	return TierAuto, fmt.Errorf("core: unknown tier %q (want auto, interpret, compiled or generated)", s)
}

// Compiled is a configuration bound to one data graph on one compiled tier,
// ready to run. Immutable and shared across workers; per-worker state is
// created inside the engine.
type Compiled struct {
	tier   Tier // TierCompiled or TierGenerated
	useIEP bool
	// kern is the runtime-compiled closure chain (TierCompiled). The clique
	// kernel (TierGenerated) has no shared half: every worker builds a
	// codegen.Clique for K_n.
	kern *codegen.Kernel
	// scaleNum/scaleDen convert the raw tally into the final count. The
	// clique kernel tallies final counts directly (1/1); IEP-compiled
	// closures carry the configuration's over-count correction.
	scaleNum, scaleDen int64
	// edgeOK reports whether edge-parallel root scheduling is available.
	edgeOK bool
	// aux reports that the closures carry aux-probing wrappers; the engine
	// then attaches per-worker auxgraph scratch to every State.
	aux bool
}

// Tier returns the tier this compilation runs on (TierCompiled or
// TierGenerated).
func (cp *Compiled) Tier() Tier { return cp.tier }

type compiledKey struct {
	g      *graph.Graph
	useIEP bool
	tier   Tier
	aux    bool
}

// Compile builds (or returns the memoized) compiled execution of this
// configuration on g: the clique kernel when the configuration is one, else
// runtime-compiled closures. The service's plan cache stores Configs, so
// the memo rides the existing fingerprint+canonical-form cache key — a
// /count hot hit reuses the compiled kernel directly.
func (c *Config) Compile(g *graph.Graph, useIEP bool) (*Compiled, error) {
	return c.CompileTier(g, useIEP, TierAuto)
}

// CompileTier is Compile with an explicit tier request. TierGenerated
// errors when the configuration is not a total-order clique; TierInterpret
// is not a compilation and errors.
func (c *Config) CompileTier(g *graph.Graph, useIEP bool, tier Tier) (*Compiled, error) {
	return c.compileTier(g, useIEP, tier, false)
}

// compileTier is CompileTier with the aux-closure request the engine resolves
// per run. Aux-probing and plain compilations memoize under separate keys:
// the closures differ, but their counts are bit-identical. The generated tier
// has no aux variant: its per-root bit matrix already is the root's pruned
// adjacency.
func (c *Config) compileTier(g *graph.Graph, useIEP bool, tier Tier, aux bool) (*Compiled, error) {
	switch tier {
	case TierAuto:
		if c.clique {
			tier = TierGenerated
		} else {
			tier = TierCompiled
		}
	case TierGenerated:
		if !c.clique {
			return nil, fmt.Errorf("core: no clique kernel for %s (the generated tier covers complete patterns of 3 or more vertices under a total-order restriction set)",
				c.Pattern)
		}
	case TierCompiled:
	default:
		return nil, fmt.Errorf("core: tier %s is not a compiled tier", tier)
	}
	if tier == TierGenerated {
		aux = false
	}
	key := compiledKey{g: g, useIEP: useIEP, tier: tier, aux: aux}
	c.compileMu.Lock()
	defer c.compileMu.Unlock()
	if cp, ok := c.compiled[key]; ok {
		return cp, nil
	}
	cp, err := c.buildCompiled(g, useIEP, tier, aux)
	if err != nil {
		return nil, err
	}
	if c.compiled == nil {
		c.compiled = make(map[compiledKey]*Compiled)
	}
	c.compiled[key] = cp
	return cp, nil
}

func (c *Config) buildCompiled(g *graph.Graph, useIEP bool, tier Tier, aux bool) (*Compiled, error) {
	cp := &Compiled{tier: tier, useIEP: useIEP, scaleNum: 1, scaleDen: 1}
	if tier == TierGenerated {
		// A clique's depth-1 loop iterates N(v0) by construction, so the
		// kernel always has the edge-parallel shape.
		cp.edgeOK = true
		return cp, nil
	}
	spec := c.lowerSpec(useIEP)
	if c.planParams != nil {
		spec.Kernels = costmodel.FreezeKernels(c.plan, c.n, *c.planParams, g.NumHubs() > 0)
	}
	if aux {
		spec.AuxModes = c.auxSpecModes(useIEP)
		cp.aux = true
	}
	prog, err := codegen.Lower(spec)
	if err != nil {
		return nil, err
	}
	cp.kern = codegen.Compile(prog, g)
	if useIEP && c.effectiveIEPK() >= 1 {
		cp.scaleNum, cp.scaleDen = c.iepNum, c.iepDen
	}
	cp.edgeOK = cp.kern.EdgeCapable() && c.EdgeParallelEligible(useIEP)
	return cp, nil
}

// lowerSpec produces the neutral description internal/codegen consumes —
// the seam that keeps codegen free of a core dependency.
func (c *Config) lowerSpec(useIEP bool) codegen.Spec {
	spec := codegen.Spec{
		N:        c.n,
		Plan:     c.plan,
		Lowers:   c.lowers,
		Uppers:   c.uppers,
		DupCheck: c.dupCheck,
	}
	if useIEP && c.effectiveIEPK() >= 1 {
		spec.KIEP = c.kIEP
		spec.IEPNum, spec.IEPDen = c.iepNum, c.iepDen
	}
	return spec
}

// SourceSpec is the Spec for the source backend (codegen.GenerateSource):
// the full enumeration nest, kernel choices left adaptive — emitted source
// carries its own minimal runtime — plus the display strings of its header.
func (c *Config) SourceSpec() codegen.Spec {
	spec := c.lowerSpec(false)
	spec.Pattern = c.Pattern.String()
	spec.Schedule = c.Schedule.String()
	spec.Restrictions = c.Restrictions.String()
	return spec
}

// ResolveTier reports the tier a counting run with the given request would
// execute on (the tier /count responses label results with). Enumeration
// always interprets, as do configurations a compiled tier cannot host.
func (c *Config) ResolveTier(g *graph.Graph, tier Tier, useIEP bool) Tier {
	if tier == TierInterpret {
		return TierInterpret
	}
	cp, err := c.CompileTier(g, useIEP, tier)
	if err != nil {
		return TierInterpret
	}
	return cp.tier
}

// detectCliqueKernel decides at configuration-compile time whether the
// clique kernel may substitute for this configuration: the relabeled pattern
// must be a complete graph on three or more vertices, and the restriction
// windows' transitive closure must order every position pair exactly one
// way. Under a total order exactly one ordering of each clique passes the
// restrictions, so the kernel's fixed descending order counts the same set —
// regardless of which total order the planner picked. (This also makes the
// substitution valid for k > maxIEPExactnessN, where the coset verification
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
