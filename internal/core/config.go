// Package core is the heart of GraphPi: it compiles a configuration — a
// schedule plus a set of asymmetric restrictions (paper §IV) — into an
// executable loop program, runs it over a CSR data graph sequentially or in
// parallel, and hosts the planner that picks the optimal configuration with
// the performance model.
//
// The paper emits C++ source per configuration and compiles it; here the
// configuration is compiled to a compact interpreted program (see
// schedule.BuildPlan) with per-worker preallocated buffers, preserving the
// algorithm while staying a pure Go library.
package core

import (
	"fmt"

	"graphpi/internal/codegen"
	"graphpi/internal/costmodel"
	"graphpi/internal/iep"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// Config is a compiled, executable configuration: one schedule and one
// restriction set for one pattern.
type Config struct {
	// Pattern is the original pattern the configuration searches for.
	Pattern *pattern.Pattern
	// Schedule is the vertex search order.
	Schedule schedule.Schedule
	// Restrictions is the asymmetric restriction set, expressed on the
	// original pattern's vertex names.
	Restrictions restrict.Set
	// Cost is the performance model's prediction for this configuration
	// (set by the planner; 0 when the configuration was built manually).
	Cost float64

	n         int
	relabeled *pattern.Pattern
	plan      schedule.Plan
	order     []uint8 // position → original pattern vertex
	// lowers[d] lists positions p with restriction id(v_d) > id(v_p):
	// candidates at depth d must exceed bound[p].
	lowers [][]uint8
	// uppers[d] lists positions p with restriction id(v_p) > id(v_d):
	// candidates at depth d must stay below bound[p] (the paper's break).
	uppers [][]uint8
	// dupCheck[d] lists the positions p < d whose bound vertex could still
	// collide with a depth-d candidate: positions that are neither pattern
	// neighbors of d (candidates come from their neighborhoods, and the
	// data graph has no self-loops) nor covered by a restriction window.
	// Usually empty, eliminating the engine's O(depth) duplicate scan.
	dupCheck [][]uint8
	// kIEP is the usable inclusion–exclusion suffix of this schedule,
	// possibly shrunk so the over-count correction below is exact.
	kIEP int
	// An IEP run scales its raw tally by iepNum/iepDen: dropping the
	// restrictions of the innermost kIEP loops makes every subgraph be
	// counted iepDen times instead of iepNum times (paper §IV-D's x is
	// iepDen with iepNum = 1 for complete restriction sets).
	iepNum, iepDen int64
	// planParams, when set by the planner, carries the data-graph
	// statistics the configuration was costed against (drift reports read
	// them). Manually built configurations leave it nil.
	planParams *costmodel.Params
	// clique reports that the clique kernel may substitute for this
	// configuration (see detectCliqueKernel).
	clique bool
	// progEnum / progIEP are the lowered loop nests the interpreter walks:
	// the full enumeration nest, and the nest cut for the IEP suffix (nil
	// when kIEP is 0). Lowered once here.
	progEnum, progIEP *codegen.Program
}

// NewConfig compiles a configuration. The schedule must be a permutation of
// the pattern's vertices and the restrictions must reference pattern
// vertices; neither is required to be "efficient" or complete — tests
// deliberately run eliminated schedules and foreign restriction sets (the
// claims of Figures 2b and 9).
func NewConfig(pat *pattern.Pattern, sched schedule.Schedule, rs restrict.Set) (*Config, error) {
	n := pat.N()
	if len(sched.Order) != n {
		return nil, fmt.Errorf("core: schedule %v has %d vertices, pattern has %d",
			sched, len(sched.Order), n)
	}
	seen := make([]bool, n)
	for _, v := range sched.Order {
		if int(v) >= n || seen[v] {
			return nil, fmt.Errorf("core: schedule %v is not a permutation", sched)
		}
		seen[v] = true
	}
	for _, r := range rs {
		if int(r.First) >= n || int(r.Second) >= n || r.First == r.Second {
			return nil, fmt.Errorf("core: restriction %v out of range", r)
		}
	}

	c := &Config{
		Pattern:      pat,
		Schedule:     sched.Clone(),
		Restrictions: rs.Clone(),
		n:            n,
		order:        append([]uint8(nil), sched.Order...),
	}
	c.relabeled = schedule.RelabeledPattern(pat, sched)
	c.plan = schedule.BuildPlan(c.relabeled, n)

	// Bake the restrictions into per-depth candidate windows (restrict
	// package): each attaches to its later schedule position's loop.
	pos := make([]uint8, n)
	for depth, v := range sched.Order {
		pos[v] = uint8(depth)
	}
	windows := restrict.BakeWindows(rs, pos)
	c.lowers = windows.Lowers
	c.uppers = windows.Uppers

	c.dupCheck = make([][]uint8, n)
	for d := 1; d < n; d++ {
		for p := 0; p < d; p++ {
			if c.relabeled.HasEdge(d, p) {
				continue // candidate ∈ N(bound[p]) ⇒ candidate ≠ bound[p]
			}
			covered := false
			for _, q := range c.lowers[d] {
				if int(q) == p {
					covered = true
					break
				}
			}
			for _, q := range c.uppers[d] {
				if int(q) == p {
					covered = true
					break
				}
			}
			if !covered {
				c.dupCheck[d] = append(c.dupCheck[d], uint8(p))
			}
		}
	}

	c.kIEP = sched.SuffixIndependent(pat)
	if c.kIEP > n-1 {
		c.kIEP = n - 1
	}
	if c.kIEP > iep.MaxK {
		c.kIEP = iep.MaxK
	}
	c.computeIEPScaling()
	c.detectCliqueKernel(windows)
	if err := c.lowerPrograms(); err != nil {
		return nil, err
	}
	return c, nil
}

// lowerPrograms memoises the interpreter's lowered nests. A schedule whose
// IEP suffix cannot be lowered (a disconnected inner vertex would need the
// whole vertex set as an IEP set) keeps counting exactly by giving up IEP.
func (c *Config) lowerPrograms() error {
	var err error
	if c.progEnum, err = codegen.Lower(c.lowerSpec(false)); err != nil {
		return err
	}
	if c.effectiveIEPK() >= 1 {
		if c.progIEP, err = codegen.Lower(c.lowerSpec(true)); err != nil {
			c.kIEP, c.iepNum, c.iepDen = 0, 1, 1
		}
	}
	return nil
}

// lowerSpec produces the neutral description internal/codegen consumes —
// the seam that keeps codegen free of a core dependency.
func (c *Config) lowerSpec(iep bool) codegen.Spec {
	spec := codegen.Spec{
		N:        c.n,
		Plan:     c.plan,
		Lowers:   c.lowers,
		Uppers:   c.uppers,
		DupCheck: c.dupCheck,
	}
	if iep && c.effectiveIEPK() >= 1 {
		spec.KIEP = c.kIEP
		spec.IEPNum, spec.IEPDen = c.iepNum, c.iepDen
	}
	return spec
}

// SourceSpec is the Spec for the source backend (codegen.GenerateSource):
// the full enumeration nest — emitted source carries its own minimal runtime
// — plus the display strings of its header.
func (c *Config) SourceSpec() codegen.Spec {
	spec := c.lowerSpec(false)
	spec.Pattern = c.Pattern.String()
	spec.Schedule = c.Schedule.String()
	spec.Restrictions = c.Restrictions.String()
	return spec
}

// effectiveIEPK returns the IEP suffix a run actually evaluates in closed
// form: 0 when the pattern has a single vertex or the schedule admits no
// suffix — and 0 for a one-loop suffix whose enumeration leaf needs no
// duplicate check. Both forms then evaluate one set size per prefix, over the
// same outer loops, but the IEP form has to drop the leaf's restrictions and
// rescale, and an unwindowed IEP set at the end of a chain forfeits every
// bound codegen.Lower could otherwise move into the chain's steps (a clique
// under a total order loses all of them); the plain nest keeps them and its
// leaf is a length add. The planner still sees KIEP() = 1.
func (c *Config) effectiveIEPK() int {
	if c.n < 2 || (c.kIEP == 1 && len(c.dupCheck[c.n-1]) == 0) {
		return 0
	}
	return c.kIEP
}

// computeIEPScaling determines the largest usable IEP suffix and the exact
// over-count correction.
//
// Paper §IV-D drops the restrictions of the innermost k loops and divides
// the raw IEP tally by x, the number of automorphisms the remaining
// restrictions fail to eliminate. That division is exact only when every
// automorphism-coset of injective maps has the same number of members
// passing the outer restrictions — which holds for the configurations the
// paper exercises but not for every (schedule, restriction set) pair
// Algorithm 1 can emit. We therefore verify exactness explicitly: for k
// from the schedule's independent suffix downward, read off the pattern's
// order table (its n! relative orders grouped into automorphism cosets) the
// per-coset counts of orders passing (a) the full set and (b) the
// outer-only set, and check that they are constants. The first k that
// passes fixes the scaling an IEP run must apply (full/outer, i.e.
// iepNum/iepDen); if none passes, IEP runs fall back to full enumeration
// (kIEP = 0). Patterns above perm.MaxTableDegree vertices have no table and
// always fall back; the paper's patterns stop at 7 vertices.
func (c *Config) computeIEPScaling() {
	c.iepNum, c.iepDen = 1, 1
	if c.kIEP < 1 || c.n < 2 {
		c.kIEP = 0
		return
	}
	t := c.Pattern.OrderTable()
	if t == nil {
		c.kIEP = 0
		return
	}
	num, fullOK := t.PerCoset(t.Satisfying(c.vertexGreater(c.n)))
	for k := c.kIEP; k >= 1 && fullOK; k-- {
		den, ok := t.PerCoset(t.Satisfying(c.vertexGreater(c.n - k)))
		if ok && den > 0 {
			c.kIEP = k
			c.iepNum, c.iepDen = int64(num), int64(den)
			return
		}
	}
	c.kIEP = 0
}

// vertexGreater collects the restrictions whose later endpoint's schedule
// position lies before cut — the checks executed by the outermost cut
// loops — on the pattern's own vertices, as greater masks: bit u of
// greater[v] demands id(u) > id(v).
func (c *Config) vertexGreater(cut int) []uint16 {
	greater := make([]uint16, c.n)
	for d := 0; d < cut && d < c.n; d++ {
		for _, p := range c.lowers[d] {
			greater[c.order[p]] |= 1 << c.order[d]
		}
		for _, p := range c.uppers[d] {
			greater[c.order[d]] |= 1 << c.order[p]
		}
	}
	return greater
}

// N returns the pattern size.
func (c *Config) N() int { return c.n }

// KIEP returns the inclusion–exclusion suffix length this configuration can
// exploit when counting (0 when IEP runs fall back to enumeration).
func (c *Config) KIEP() int { return c.kIEP }

// IEPDivisor returns the over-count divisor an IEP run applies (the
// paper's x; the full scaling is IEPNumerator()/IEPDivisor()).
func (c *Config) IEPDivisor() int64 { return c.iepDen }

// IEPNumerator returns the numerator of an IEP run's scaling (1 for complete
// restriction sets).
func (c *Config) IEPNumerator() int64 { return c.iepNum }

// PlanView exposes the compiled loop program (read-only), the input
// costmodel.Estimate prices.
func (c *Config) PlanView() schedule.Plan { return c.plan }

// PosRestrictions returns the restrictions mapped to schedule positions as
// (First, Second) pairs meaning id(pos First) > id(pos Second).
func (c *Config) PosRestrictions() [][2]uint8 {
	var out [][2]uint8
	for d := 0; d < c.n; d++ {
		for _, p := range c.lowers[d] {
			out = append(out, [2]uint8{uint8(d), p})
		}
		for _, p := range c.uppers[d] {
			out = append(out, [2]uint8{p, uint8(d)})
		}
	}
	return out
}

func (c *Config) String() string {
	return fmt.Sprintf("config{%s, schedule %s, restrictions %s, cost %.3g}",
		c.Pattern, c.Schedule, c.Restrictions, c.Cost)
}
