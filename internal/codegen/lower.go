// Package codegen compiles a planned configuration into straight-line
// executable form — the analogue of GraphPi's "Code Generation and
// Compilation" stage (paper Figure 3), which emits C++ for the selected
// schedule and restriction set and compiles it with -O3.
//
// The package has one lowering, one source backend and one kernel:
//
//   - Lower turns a Spec (the neutral description of a configuration that
//     internal/core produces) into a Program: an explicit per-level loop
//     nest with restriction windows and duplicate checks resolved per level.
//     It also decides how much of every hoisted intersection is worth
//     computing — the restriction bounds a Step applies to its operands (see
//     Step) — and which steps are loop-invariant, so that a repeat can be
//     served from a memo; the interpreter in internal/core obeys both
//     decisions.
//   - GenerateSource (source.go) renders the same Program as a standalone
//     Go main package, keeping the paper's emit-and-inspect architecture
//     reproducible from the identical lowering.
//   - Clique (clique.go) is the engine's second executor: one hand-written
//     word-parallel kernel for every total-order-restricted clique, which
//     needs no Program — per root it packs the candidates' adjacency into a
//     bit matrix and counts with AND and popcount.
//
// codegen deliberately does not import internal/core: core imports codegen
// for its lowering and the clique kernel, and hands over a Spec instead of a
// Config.
package codegen

import (
	"fmt"
	"math/bits"

	"graphpi/internal/schedule"
	"graphpi/internal/vertexset"
)

// Spec is the neutral, core-independent description of one executable
// configuration: everything the lowering needs, nothing engine-internal.
type Spec struct {
	// N is the number of loops (pattern vertices).
	N int
	// Plan is the loop program: candidate sources and hoisted
	// intersections per depth (schedule.BuildPlan output).
	Plan schedule.Plan
	// Lowers[d]/Uppers[d] are the baked restriction windows: positions
	// whose bound vertex lower/upper-limits the candidates of depth d.
	Lowers [][]uint8
	Uppers [][]uint8
	// DupCheck[d] lists earlier positions whose bound vertex can still
	// collide with a depth-d candidate (usually none).
	DupCheck [][]uint8
	// KIEP is the inclusion–exclusion suffix length (0 → enumerate the
	// full nest; the cut depth is then N-KIEP-1).
	KIEP int
	// IEPNum/IEPDen scale the raw IEP tally (1/1 for complete sets).
	IEPNum, IEPDen int64
	// Pattern, Schedule, Restrictions are display strings for the source
	// backend's generated header.
	Pattern, Schedule, Restrictions string
}

// Step is one hoisted intersection with its window:
// Out = Left ∩ N(v_Depth) ∩ [lo, hi).
//
// Lowers/Uppers are the restriction bounds the step applies to both operands
// before it reads them (vertexset.IntersectWindow; Bounds turns them into
// lo/hi). A bound is moved from a loop into the step that builds the loop's
// candidate set when (a) every consumer of Out shares it — the loop that
// scans Out, any later step whose left operand is Out (transitively: chains
// share prefixes), and IEP suffix sets, which impose no window because the
// suffix's restrictions are dropped and corrected by the IEP scaling — and
// (b) its position is already bound when the step runs (position <= Depth).
// The bounded set is then also what the executor's empty check sees.
//
// Every executor abandons the current prefix when a step's output is empty:
// each buffer ends, through the chain, in a deeper loop's candidate set or
// in an IEP set (Lower rejects a plan where one does not), the loop nest
// between the step and that consumer only multiplies what the consumer
// yields, and an empty loop, like an empty factor of the IEP product, yields
// nothing to count or to enumerate.
//
// A step is loop-invariant when its output is a function of the vertex bound
// at Depth and of a context that some intermediate loop does not touch; Memo
// then lists the context (see markInvariant) and the executor may serve a
// repeated key from a memo instead of intersecting again.
//
// A step whose left operand is N(v0) or N(v1) reads that same row for every
// vertex bound below it; Row then names the position (see markRows) and the
// executor may probe the right operand into a bit row of it instead of
// merging (vertexset.IntersectRow).
type Step struct {
	schedule.Step
	// Lowers/Uppers are the positions p <= Depth whose bound vertex lower-
	// (out > v_p) or upper-limits (out < v_p) the output.
	Lowers, Uppers []uint8
	// Memo lists, ascending, the positions other than Depth that the output
	// depends on when the step is loop-invariant, and is nil otherwise.
	Memo []uint8
	// Row is the position, 0 or 1, whose neighbourhood is the step's left
	// operand and may be held as a bit row; -1 when there is none.
	Row int
}

// Level is one loop of the lowered nest.
type Level struct {
	Depth int
	// Cand is where this loop's candidates come from.
	Cand schedule.Candidate
	// Lowers/Uppers are the bound positions narrowing this loop's window at
	// scan time: the level's restrictions minus those the step that built
	// its candidate buffer already applied.
	Lowers, Uppers []uint8
	// Dup lists the bound positions still requiring an inequality check.
	Dup []uint8
	// Steps are the intersections to run right after binding this depth.
	Steps []Step
	// IsLeaf marks the innermost loop; AtCut marks the loop after which
	// the IEP calculator takes over. At most one of the two is set.
	IsLeaf, AtCut bool
}

// IEPSource describes one candidate set of the IEP suffix: the neighborhood
// of the vertex bound at Parent (Parent >= 0) or intersection buffer Buf.
type IEPSource struct {
	Parent int
	Buf    int
}

// Program is the lowered loop nest the interpreter walks and the source
// backend renders.
type Program struct {
	N       int
	NumBufs int
	// Levels[d] is the loop at depth d (level 0 is the root sweep).
	Levels []Level
	// IEPCut is the depth after which IEP takes over (-1 when disabled).
	IEPCut int
	// KIEP and the scaling mirror the Spec (KIEP > 0 iff IEPCut >= 0).
	KIEP           int
	IEPNum, IEPDen int64
	// IEP lists the candidate sources of the suffix loops, in order.
	IEP []IEPSource
	// IEPExclude says, per prefix position whose bound vertex can lie in an
	// IEP set, which sets always hold it and which must be probed; a
	// position absent here, or a set in neither mask, never holds it.
	IEPExclude []IEPExclusion
}

// IEPExclusion classifies one bound prefix position against the IEP sets:
// bit i of Always / Probe refers to IEP[i]. The inclusion–exclusion count
// removes the bound vertices from every block intersection holding them, and
// which sets can hold which bound vertex is fixed by the pattern, so Lower
// decides it once (see classifyExclusions) and ExcludedIn only probes the
// undecided pairs.
type IEPExclusion struct {
	Pos, Always, Probe uint16
}

// Lower turns a Spec into a Program, resolving once what would otherwise be
// re-derived per iteration: leaf/cut roles, duplicate checks, and where each
// restriction bound is applied — in the step that builds a candidate set when
// all of the set's consumers agree on it, at the scan otherwise.
func Lower(spec Spec) (*Program, error) {
	n := spec.N
	if n < 1 {
		return nil, fmt.Errorf("codegen: spec has %d levels", n)
	}
	if len(spec.Plan.Cand) != n || len(spec.Plan.Steps) != n {
		return nil, fmt.Errorf("codegen: plan shape (%d cands, %d step rows) does not match n=%d",
			len(spec.Plan.Cand), len(spec.Plan.Steps), n)
	}
	p := &Program{
		N:       n,
		NumBufs: spec.Plan.NumBufs,
		Levels:  make([]Level, n),
		IEPCut:  -1,
		KIEP:    spec.KIEP,
		IEPNum:  spec.IEPNum,
		IEPDen:  spec.IEPDen,
	}
	if spec.KIEP >= 1 && n >= 2 {
		p.IEPCut = n - spec.KIEP - 1
		for i := 0; i < spec.KIEP; i++ {
			cand := spec.Plan.Cand[p.IEPCut+1+i]
			switch cand.Kind {
			case schedule.CandNeighborhood:
				p.IEP = append(p.IEP, IEPSource{Parent: cand.Parent, Buf: -1})
			case schedule.CandBuffer:
				p.IEP = append(p.IEP, IEPSource{Parent: -1, Buf: cand.Buf})
			default:
				// A disconnected inner vertex would need the whole vertex
				// set; connected patterns never produce this.
				return nil, fmt.Errorf("codegen: IEP inner loop %d has a full candidate set", p.IEPCut+1+i)
			}
		}
	}
	at := func(rows [][]uint8, d int) []uint8 {
		if d < len(rows) {
			return rows[d]
		}
		return nil
	}
	for d := 0; d < n; d++ {
		lv := Level{
			Depth:  d,
			Cand:   spec.Plan.Cand[d],
			Lowers: at(spec.Lowers, d),
			Uppers: at(spec.Uppers, d),
			Dup:    at(spec.DupCheck, d),
			IsLeaf: d == n-1 && p.IEPCut != d,
			AtCut:  d == p.IEPCut,
		}
		for _, st := range spec.Plan.Steps[d] {
			lv.Steps = append(lv.Steps, Step{Step: st, Row: -1})
		}
		p.Levels[d] = lv
	}
	if err := p.boundSteps(); err != nil {
		return nil, err
	}
	p.markInvariant()
	p.markRows()
	p.classifyExclusions()
	return p, nil
}

// CutAt returns the nest p cut after depth (at most the IEP cut, if p has
// one): level depth becomes a counting leaf with no duplicate check and no
// IEP suffix follows, so a counting walk adds each of its candidate-set sizes
// and never descends further. Every level above it keeps its steps, windows
// and checks, so the cut nest scans exactly the candidate sets p scans at
// levels 0..depth.
func (p *Program) CutAt(depth int) *Program {
	c := *p
	c.Levels = append([]Level(nil), p.Levels[:depth+1]...)
	last := &c.Levels[depth]
	last.Dup, last.Steps, last.IsLeaf, last.AtCut = nil, nil, true, false
	c.IEPCut, c.KIEP, c.IEP, c.IEPExclude = -1, 0, nil, nil
	return &c
}

// classifyExclusions fills IEPExclude. Let M be the positions whose
// neighbourhoods IEP set i intersects (its parent, or its buffer's chain of
// steps). A prefix position p is
//
//   - never in set i when p ∈ M: v_p ∉ N(v_p), the graph has no self-loops;
//   - always in set i when p is a pattern neighbour of every q ∈ M — every
//     embedding maps those edges to edges, so v_p ∈ ∩_{q∈M} N(v_q) — and no
//     step of the buffer's chain applies a window, which could cut v_p out;
//   - probed otherwise.
//
// Steps whose output an IEP set reads carry no window (boundSteps gives IEP
// consumers the empty window), so the second condition holds for every
// Program Lower builds; it is checked rather than assumed because "always"
// would silently over-subtract the day it did not.
func (p *Program) classifyExclusions() {
	p.IEPExclude = nil
	if p.IEPCut < 0 {
		return
	}
	producer := p.producers()
	// bufParents returns buffer b's position mask and whether every step of
	// its chain is unwindowed.
	var bufParents func(b int) (uint16, bool)
	bufParents = func(b int) (uint16, bool) {
		st := producer[b]
		m, open := uint16(1)<<st.Depth, len(st.Lowers)+len(st.Uppers) == 0
		if st.LeftBuf < 0 {
			return m | 1<<st.LeftParent, open
		}
		lm, lopen := bufParents(st.LeftBuf)
		return m | lm, open && lopen
	}
	// parents[d] holds the earlier positions adjacent to d in the pattern:
	// the neighbourhoods level d's candidates are drawn from.
	parents := make([]uint16, p.N)
	for d, lv := range p.Levels {
		switch lv.Cand.Kind {
		case schedule.CandNeighborhood:
			parents[d] = 1 << lv.Cand.Parent
		case schedule.CandBuffer:
			parents[d], _ = bufParents(lv.Cand.Buf)
		}
	}
	adjacent := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return parents[b]&(1<<a) != 0
	}
	for pos := 0; pos <= p.IEPCut; pos++ {
		e := IEPExclusion{Pos: uint16(pos)}
		for i, src := range p.IEP {
			var m uint16
			open := true
			if src.Parent >= 0 {
				m = 1 << src.Parent
			} else {
				m, open = bufParents(src.Buf)
			}
			if m&(1<<pos) != 0 {
				continue // never
			}
			always := open
			for q := 0; q < p.N && always; q++ {
				if m&(1<<q) != 0 && !adjacent(pos, q) {
					always = false
				}
			}
			if always {
				e.Always |= 1 << i
			} else {
				e.Probe |= 1 << i
			}
		}
		if e.Always|e.Probe != 0 {
			p.IEPExclude = append(p.IEPExclude, e)
		}
	}
}

// ExcludedIn evaluates IEPExclude for the bound prefix: it appends to dst[:0]
// one mask per classified position, bit i set iff the position's vertex lies
// in sets[i], and returns it — the exIn argument of iep.Calculator.CountIn.
// A probe reads the set's hub bitmap when bms has one and binary-searches the
// sorted set otherwise; bms may be nil. Positions whose vertex lies in no set
// are left out. The prefix is injective (the nest's duplicate checks), so no
// vertex is listed twice.
//
//graphpi:deterministic
func (p *Program) ExcludedIn(dst []uint16, bound []uint32, sets [][]uint32, bms []vertexset.Bitmap) []uint16 {
	dst = dst[:0]
	for _, e := range p.IEPExclude {
		in := e.Always
		x := bound[e.Pos]
		for probe := e.Probe; probe != 0; probe &= probe - 1 {
			i := bits.TrailingZeros16(probe)
			var hit bool
			if bms != nil && bms[i] != nil {
				hit = bms[i].Contains(x)
			} else {
				hit = vertexset.Contains(sets[i], x)
			}
			if hit {
				in |= 1 << i
			}
		}
		if in != 0 {
			dst = append(dst, in)
		}
	}
	return dst
}

// boundSteps moves restriction bounds from the loops into the steps that
// build their candidate sets (the rule is stated on Step). Per buffer it
// intersects the bound sets of all consumers, as position bitmasks: loops
// contribute every earlier position the enforced restrictions order them
// against, IEP suffix sets the empty window, and a step reading the buffer as
// its left operand whatever its own output's consumers share. A step's left
// buffer is always created before its output, so one descending pass over the
// buffers resolves the chains.
func (p *Program) boundSteps() error {
	type masks struct{ lo, up uint16 }
	// below[x] holds the positions y with v_x < v_y in every embedding the
	// nest counts: the enforced restrictions (those of the loops that run —
	// the IEP suffix's are dropped) closed transitively. A clique's chain
	// v0 > v1 > v2 > v3 attaches only v3 < v2 to loop 3, but loop 3's
	// candidates are just as surely below v0 and v1, and it is that implied
	// bound which the buffers N(v0)∩N(v1) and N(v0)∩N(v1)∩N(v2) share.
	n := len(p.Levels)
	below := make([]uint16, n)
	for d := range p.Levels {
		if p.IEPCut >= 0 && d > p.IEPCut {
			break
		}
		for _, q := range p.Levels[d].Uppers {
			below[d] |= 1 << q
		}
		for _, q := range p.Levels[d].Lowers {
			below[q] |= 1 << d
		}
	}
	for k := 0; k < n; k++ {
		for x := 0; x < n; x++ {
			if below[x]&(1<<k) != 0 {
				below[x] |= below[k]
			}
		}
	}
	// window returns the bounds loop d's candidates must respect against the
	// positions bound before it.
	window := func(d int) (m masks) {
		earlier := uint16(1)<<d - 1
		m.up = below[d] & earlier
		for q := 0; q < d; q++ {
			if below[q]&(1<<d) != 0 {
				m.lo |= 1 << q
			}
		}
		return m
	}
	shared := make([]masks, p.NumBufs)
	used := make([]bool, p.NumBufs)
	consume := func(b int, m masks) error {
		if b < 0 || b >= p.NumBufs {
			return fmt.Errorf("codegen: plan references buffer %d of %d", b, p.NumBufs)
		}
		if !used[b] {
			shared[b], used[b] = m, true
		} else {
			shared[b].lo &= m.lo
			shared[b].up &= m.up
		}
		return nil
	}
	for d := range p.Levels {
		lv := &p.Levels[d]
		if lv.Cand.Kind != schedule.CandBuffer {
			continue
		}
		var m masks
		if p.IEPCut < 0 || d <= p.IEPCut {
			m = window(d)
		}
		if err := consume(lv.Cand.Buf, m); err != nil {
			return err
		}
	}
	producer := make([]*Step, p.NumBufs)
	for d := range p.Levels {
		for i := range p.Levels[d].Steps {
			st := &p.Levels[d].Steps[i]
			if st.Out < 0 || st.Out >= p.NumBufs || st.LeftBuf >= st.Out || st.Depth != d {
				return fmt.Errorf("codegen: malformed step at depth %d (left buffer %d, out %d of %d)",
					d, st.LeftBuf, st.Out, p.NumBufs)
			}
			producer[st.Out] = st
		}
	}
	for b := p.NumBufs - 1; b >= 0; b-- {
		st := producer[b]
		if st == nil || !used[b] {
			// The empty-set cut is exact only because every buffer feeds a
			// loop or an IEP set; schedule.BuildPlan never emits one that
			// does not.
			return fmt.Errorf("codegen: buffer %d is never produced or never consumed", b)
		}
		if st.LeftBuf >= 0 {
			if err := consume(st.LeftBuf, shared[b]); err != nil {
				return err
			}
		}
		// Only positions already bound when the step runs can be applied.
		for q := uint8(0); int(q) <= st.Depth; q++ {
			if shared[b].lo&(1<<q) != 0 {
				st.Lowers = append(st.Lowers, q)
			}
			if shared[b].up&(1<<q) != 0 {
				st.Uppers = append(st.Uppers, q)
			}
		}
	}
	for d := range p.Levels {
		lv := &p.Levels[d]
		if lv.Cand.Kind == schedule.CandBuffer {
			st := producer[lv.Cand.Buf]
			lv.Lowers = without(lv.Lowers, posMask(st.Lowers))
			lv.Uppers = without(lv.Uppers, posMask(st.Uppers))
		}
	}
	return nil
}

// markInvariant sets Memo on the loop-invariant steps. A step's context is
// every position its output depends on other than its own depth d: its left
// parent or the positions of its buffer's chain (each chain step's depth,
// window and left parent), and its own window. Let q be the newest context
// position. The step is marked when
//
//   - q < d-1: at least one loop between q and d rebinds without changing the
//     step's operands, so the same key v_d can recur under one context; and
//   - loop d draws its candidates from a set bound at or above q (a
//     neighbourhood of a position <= q, a buffer whose chain ends there, or
//     the whole vertex set): the intermediate loops then scan the same keys
//     again. Without it a key seldom recurs and the memo costs more than it
//     saves (K2,3 and the Pentagon key on a neighbourhood bound below q).
//
// Cycle6Tri's N(v0)∩N(v2) under its depth-1 loop is the model case: context
// {0}, key v2 drawn from N(v0), recomputed for every v1 without the memo.
func (p *Program) markInvariant() {
	producer := p.producers()
	// deps returns the positions buffer b's content depends on.
	var deps func(b int) uint16
	deps = func(b int) uint16 {
		st := producer[b]
		m := uint16(1)<<st.Depth | posMask(st.Lowers) | posMask(st.Uppers)
		if st.LeftBuf < 0 {
			return m | 1<<st.LeftParent
		}
		return m | deps(st.LeftBuf)
	}
	for d := range p.Levels {
		lv := &p.Levels[d]
		src := -1 // where loop d's candidate set is bound; -1: the vertex set
		switch lv.Cand.Kind {
		case schedule.CandNeighborhood:
			src = lv.Cand.Parent
		case schedule.CandBuffer:
			src = bits.Len16(deps(lv.Cand.Buf)) - 1
		}
		for i := range lv.Steps {
			st := &lv.Steps[i]
			ctx := deps(st.Out) &^ (1 << d)
			if q := bits.Len16(ctx) - 1; q < d-1 && src <= q {
				for pos := uint8(0); ctx != 0; pos, ctx = pos+1, ctx>>1 {
					if ctx&1 != 0 {
						st.Memo = append(st.Memo, pos)
					}
				}
			}
		}
	}
}

// RowPositions is how many shallow positions markRows gives a row: N(v0) and
// N(v1), so an executor keeps at most this many rows per worker.
const RowPositions = 2

// markRows sets Row on the steps whose left operand is the neighbourhood of
// position 0 or 1. Such a step runs once for every vertex its own loop binds
// below that position — usually many — and each run rereads the same left
// row, so a bit row of it, built once per distinct vertex at O(degree), turns
// each run's merge into a probe of the right operand. A deeper position
// changes too often to repay the build, and a buffer's content changes with
// every prefix.
func (p *Program) markRows() {
	for d := range p.Levels {
		for i := range p.Levels[d].Steps {
			st := &p.Levels[d].Steps[i]
			if st.LeftBuf < 0 && st.LeftParent < RowPositions {
				st.Row = st.LeftParent
			}
		}
	}
}

// producers maps each buffer to the step that writes it (Lower has checked
// that every buffer has exactly one).
func (p *Program) producers() []*Step {
	producer := make([]*Step, p.NumBufs)
	for d := range p.Levels {
		for i := range p.Levels[d].Steps {
			st := &p.Levels[d].Steps[i]
			producer[st.Out] = st
		}
	}
	return producer
}

// posMask returns the positions ps as a bitmask.
func posMask(ps []uint8) (m uint16) {
	for _, q := range ps {
		m |= 1 << q
	}
	return m
}

// without returns ps minus the positions in drop, leaving ps untouched (it
// aliases the Spec's rows).
func without(ps []uint8, drop uint16) []uint8 {
	if drop == 0 {
		return ps
	}
	var out []uint8
	for _, q := range ps {
		if drop&(1<<q) == 0 {
			out = append(out, q)
		}
	}
	return out
}

// Bounds evaluates a window's bound positions against the bound vertices:
// the half-open id interval [lo, hi) that satisfies every lower (v > bound[p])
// and every upper (v < bound[p]) restriction. No positions yield the
// unbounded window (0, vertexset.NoBound).
func Bounds(bound []uint32, lowers, uppers []uint8) (lo, hi uint32) {
	for _, p := range lowers {
		if b := bound[p] + 1; b > lo {
			lo = b
		}
	}
	hi = vertexset.NoBound
	for _, p := range uppers {
		if b := bound[p]; b < hi {
			hi = b
		}
	}
	return lo, hi
}
