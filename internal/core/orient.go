package core

import (
	"fmt"
	"sync/atomic"

	"graphpi/internal/graph"
	"graphpi/internal/restrict"
	"graphpi/internal/telemetry"
)

// Mirror returns the configuration with every restriction reversed: the same
// schedule, with id(a) > id(b) turned into id(b) > id(a). Reversing the id
// order maps the n! relative orders onto themselves, so the mirror of a
// complete set is complete, keeps the same IEP suffix and scaling, and has
// the same predicted cost — Eq. 6/7 price a set by the share of orders it
// filters. The two differ only in which end of a degree-ordered graph's id
// space each restricted vertex is drawn from.
func (c *Config) Mirror() (*Config, error) {
	rs := make(restrict.Set, len(c.Restrictions))
	for i, r := range c.Restrictions {
		rs[i] = restrict.Restriction{First: r.Second, Second: r.First}
	}
	m, err := NewConfig(c.Pattern, c.Schedule, rs.Canonicalize())
	if err != nil {
		return nil, err
	}
	m.Cost, m.planParams = c.Cost, c.planParams
	return m, nil
}

const (
	// orientGap is the factor by which one orientation's candidate total
	// must undercut the other's at a depth for that depth to decide.
	orientGap = 2
	// orientVisitsPerSlot caps one probe pass at this many bound candidates
	// per CSR adjacency slot; a pass that would bind more keeps the
	// planner's choice.
	orientVisitsPerSlot = 8
)

// Orientation is the outcome of Orient for one configuration on one graph.
type Orientation struct {
	// Probed is false when the step did not apply (graph not degree-ordered,
	// no restrictions, clique kernel, no probe depth).
	Probed bool
	// Capped reports that a probe pass hit the work cap; the planner's
	// choice was kept.
	Capped bool
	// Mirrored reports that the mirror replaced the planned configuration.
	Mirrored bool
	// Depth is the decisive loop depth: the first at which one orientation
	// scans at most 1/orientGap of the other's candidates (0 when none
	// did). MaxDepth is the deepest level probed.
	Depth, MaxDepth int
	// Planned and Mirror are the exact candidate totals of the planned
	// configuration and of its mirror at Depth.
	Planned, Mirror uint64
}

func (o Orientation) String() string {
	switch {
	case !o.Probed:
		return "kept (not probed)"
	case o.Capped:
		return "kept (probe capped)"
	case o.Depth == 0:
		return fmt.Sprintf("kept (no %dx gap through depth %d)", orientGap, o.MaxDepth)
	}
	verb := "kept"
	if o.Mirrored {
		verb = "mirrored"
	}
	return fmt.Sprintf("%s at depth %d (candidates: planned %d, mirror %d)", verb, o.Depth, o.Planned, o.Mirror)
}

// Orient is the graph-bound step after planning. Plan sees the data graph
// only through Stats, and Eq. 6/7 cannot tell a restriction set from its
// mirror; on a degree-ordered graph, though, id(a) > id(b) means "a has the
// lower degree", and the two orientations can differ several-fold. Orient
// counts the exact candidate totals of both orientations at every loop depth
// up to the IEP cut (n-2 without an IEP suffix): one pass per orientation,
// each a run on workers goroutines (< 1 → GOMAXPROCS) of the interpreter's
// counting nest, cut after that depth. It returns the
// mirror when, at the first depth where one orientation scans at most
// 1/orientGap of the other's candidates, the mirror is that one; otherwise
// it returns c. The decision uses counts, never time, so it is deterministic
// and independent of workers.
//
// The step does not apply (c is returned unprobed) when g is not
// degree-ordered, c has no restrictions, or c may run on the clique kernel,
// which ignores orientation. A pass binding more than orientVisitsPerSlot
// candidates per adjacency slot above the deepest probed level stops, and c
// is kept.
func (c *Config) Orient(g *graph.Graph, workers int) (*Config, Orientation, error) {
	depth := c.n - 2
	if c.progIEP != nil {
		depth = c.progIEP.IEPCut
	}
	if !g.IsReordered() || len(c.Restrictions) == 0 || c.clique || depth < 1 {
		return c, Orientation{}, nil
	}
	m, err := c.Mirror()
	if err != nil {
		return nil, Orientation{}, err
	}
	o := Orientation{Probed: true, MaxDepth: depth}
	limit := uint64(orientVisitsPerSlot) * uint64(g.NumAdjSlots())
	planned, ok := c.probe(g, depth, workers, limit)
	var mirror []uint64
	if ok {
		mirror, ok = m.probe(g, depth, workers, limit)
	}
	if !ok {
		o.Capped = true
		return c, o, nil
	}
	for d := 1; d <= depth; d++ {
		a, b := planned[d], mirror[d]
		if a > b && a >= orientGap*b || b > a && b >= orientGap*a {
			o.Depth, o.Planned, o.Mirror, o.Mirrored = d, a, b, a > b
			break
		}
	}
	if o.Mirrored {
		return m, o, nil
	}
	return c, o, nil
}

// probe runs c's counting nest cut after depth over every root on the
// interpreter, and returns the candidate total of each level 0..depth — the
// Candidates an IEP counting run's RunStats record there. ok is false when the
// candidates bound above depth exceeded limit; the run's work cap stops it
// early then.
func (c *Config) probe(g *graph.Graph, depth, workers int, limit uint64) (totals []uint64, ok bool) {
	cut := Bound{cfg: c, prog: c.Bind(true, TierInterpret).prog.CutAt(depth)}
	st := telemetry.NewRunStats(c.n)
	cut.Count(g, RunOptions{Workers: workers, Stats: st, work: &workCap{limit: limit}})
	if boundAbove(st, depth) > limit {
		return nil, false
	}
	totals = make([]uint64, depth+1)
	for d := range totals {
		totals[d] = st.Levels[d].Candidates
	}
	return totals, true
}

// workCap stops a probe once its workers together have bound more than limit
// candidates above the cut level. Each worker charges its new work at root
// boundaries and sets the run's stop flag when the total passes the limit.
// Whether a probe is capped is decided afterwards from its merged RunStats,
// so the outcome does not depend on when the workers charged.
type workCap struct {
	limit uint64
	used  atomic.Uint64
}

func (w *workCap) charge(r *runner) {
	b := boundAbove(r.st, len(r.prog.Levels)-1)
	if w.used.Add(b-r.charged) > w.limit {
		r.stop.Store(true)
	}
	r.charged = b
}

// boundAbove is the number of candidates st records bound at levels
// 1..depth-1.
func boundAbove(st *telemetry.RunStats, depth int) uint64 {
	var n uint64
	for d := 1; d < depth; d++ {
		n += st.Levels[d].Candidates
	}
	return n
}
