package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/iep"
	"graphpi/internal/schedule"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// EdgeParallelMode selects how the outermost loops are parallelized.
type EdgeParallelMode uint8

const (
	// EdgeParallelAuto (the default) uses edge-parallel root scheduling
	// whenever the schedule is eligible and more than one worker runs.
	EdgeParallelAuto EdgeParallelMode = iota
	// EdgeParallelOn forces edge-parallel roots whenever eligible.
	EdgeParallelOn
	// EdgeParallelOff always chunks the outer loop by vertex ranges.
	EdgeParallelOff
)

// RunOptions controls the execution of a compiled configuration.
type RunOptions struct {
	// Workers is the number of goroutines (< 1 → GOMAXPROCS). The result
	// is identical regardless of worker count.
	Workers int
	// ChunkSize sets the task granularity in outermost-loop vertices:
	// < 1 → cut by predicted work (RootTasks); > 0 → fixed-size test hook,
	// ⌈|V|/ChunkSize⌉ equal-size tasks of either shape.
	ChunkSize int
	// EdgeParallel selects the root scheduling discipline. When the
	// schedule's second loop iterates N(v0), the first two loops flatten
	// into a sweep over CSR edge slots, making work units proportional to
	// edges instead of vertices — a single hub can no longer serialize a
	// whole chunk (paper §IV-E's skew problem). Auto enables it for
	// multi-worker runs on eligible schedules.
	EdgeParallel EdgeParallelMode
	// Budget, when positive, aborts the run cooperatively once exceeded
	// (the paper's 48-hour "T" cutoff). The *Ctx methods report such an
	// abort as ErrBudgetExceeded.
	Budget time.Duration
	// Context, when non-nil, cancels the run cooperatively: every worker
	// observes cancellation at its next outer-loop vertex (or edge-slot
	// group) boundary and returns, so taskpool goroutines are freed within
	// one chunk even when the full search would run for minutes. Use the
	// *Ctx methods to learn whether a run was cancelled.
	Context context.Context
	// Tier selects the executor for counting runs (see Tier). TierAuto
	// picks the clique kernel for total-order cliques; enumeration and every
	// other configuration run on the interpreter. Counts are bit-identical
	// across tiers, so the choice is purely about speed.
	Tier Tier
	// Stats, when non-nil, enables per-level telemetry: every worker
	// records into a private shard and the shards are merged into Stats
	// when the run returns. The counts themselves are bit-identical with
	// and without Stats; the disabled path pays one nil check per
	// candidate scan. Allocate with telemetry.NewRunStats(cfg.N()).
	Stats *telemetry.RunStats
}

// Count returns the number of embeddings of the configuration's pattern by
// enumerating the full loop nest (no IEP). If the restriction set is
// complete, each embedding is counted exactly once; with an empty set the
// result counts every automorphic image (|Aut| per embedding).
//
//graphpi:deterministic
func (c *Config) Count(g *graph.Graph, opt RunOptions) int64 {
	n, _ := c.execute(g, opt, false, nil)
	return n
}

// CountIEP counts embeddings using the Inclusion-Exclusion Principle over
// the configuration's independent innermost loops (paper §IV-D). Results
// equal Count for complete restriction sets, typically far faster.
//
//graphpi:deterministic
func (c *Config) CountIEP(g *graph.Graph, opt RunOptions) int64 {
	n, _ := c.execute(g, opt, true, nil)
	return n
}

// ErrBudgetExceeded reports that a *Ctx run was aborted by RunOptions.Budget
// rather than by its context.
var ErrBudgetExceeded = errors.New("core: run budget exceeded")

// ctxErr maps a run's outcome to the error the *Ctx methods return: the
// context's error when it was cancelled, ErrBudgetExceeded when the budget
// timer aborted the run, nil only when the run truly completed.
func ctxErr(ctx context.Context, complete bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !complete {
		return ErrBudgetExceeded
	}
	return nil
}

// CountCtx is Count under a context: the run stops cooperatively when ctx
// is cancelled and the (partial) tally is returned alongside ctx's error.
// A nil error means the count ran to completion and is exact.
func (c *Config) CountCtx(ctx context.Context, g *graph.Graph, opt RunOptions) (int64, error) {
	opt.Context = ctx
	n, complete := c.execute(g, opt, false, nil)
	return n, ctxErr(ctx, complete)
}

// CountIEPCtx is CountIEP under a context (see CountCtx).
func (c *Config) CountIEPCtx(ctx context.Context, g *graph.Graph, opt RunOptions) (int64, error) {
	opt.Context = ctx
	n, complete := c.execute(g, opt, true, nil)
	return n, ctxErr(ctx, complete)
}

// EnumerateCtx is Enumerate under a context: cancellation stops every worker
// at its next boundary and no further visits happen after that point. The
// returned tally counts the visits that did happen; the error is ctx's.
func (c *Config) EnumerateCtx(ctx context.Context, g *graph.Graph, opt RunOptions, visit func([]uint32) bool) (int64, error) {
	opt.Context = ctx
	n, complete := c.execute(g, opt, false, visit)
	return n, ctxErr(ctx, complete)
}

// Enumerate invokes visit for every embedding found. The slice passed to
// visit is indexed by original pattern vertex and reused between calls —
// copy it to retain. Embeddings are reported in original vertex ids even on
// a Reorder()ed graph. visit may be invoked concurrently from different
// workers when opt.Workers > 1; returning false stops the enumeration.
// Enumerate returns the number of embeddings visited (if stopped early, the
// tally reflects the visits that happened).
func (c *Config) Enumerate(g *graph.Graph, opt RunOptions, visit func([]uint32) bool) int64 {
	n, _ := c.execute(g, opt, false, visit)
	return n
}

// EdgeParallelEligible reports whether the first two loops can be flattened
// into an edge sweep: depth 1 must iterate N(v0) and must not already be
// consumed by the IEP suffix. RootTasks packs Counter.CountEdgeRange tasks
// only then.
func (c *Config) EdgeParallelEligible(useIEP bool) bool {
	if c.n < 2 {
		return false
	}
	if useIEP && c.effectiveIEPK() >= c.n-1 {
		return false // IEP takes over right after depth 0
	}
	cand := c.plan.Cand[1]
	return cand.Kind == schedule.CandNeighborhood && cand.Parent == 0
}

// engineTasksPerWorker is how many root tasks a local run cuts per worker:
// enough for self-scheduling from the shared cursor to absorb a task that
// runs long, few enough that claiming one stays cheap.
const engineTasksPerWorker = 64

// RootTasks cuts a run's outermost loops into root tasks and reports whether
// they are CSR slot ranges (edge-parallel) or vertex ranges. It is the one
// cutter behind local runs and the cluster master: opt.Workers is the total
// worker count the tasks are for and perWorker how many tasks each should
// get; enumerate says whether the run visits embeddings (which always
// interprets). Slot tasks are packed when the schedule is EdgeParallelEligible
// and opt.EdgeParallel is On, or Auto with more than one worker.
//
// Tasks hold about equal predicted work (taskpool.Cut). For the interpreter a
// root of degree d weighs d²: as one vertex task, or as d slots of weight d.
// The clique kernel takes unit weights, i.e. equal-size cuts: a root split
// over several slot tasks rebuilds its candidate rows once per task, so
// cutting its hubs finer costs more than it balances. The weights come from
// the CSR offsets in one pass, with no per-slot array. An explicit
// opt.ChunkSize is the fixed-size test hook: ⌈|V|/ChunkSize⌉ equal-size tasks
// of either shape. One worker with no ChunkSize gets the whole loop as one
// task, as it has nobody to balance against.
func (c *Config) RootTasks(g *graph.Graph, opt RunOptions, useIEP, enumerate bool, perWorker int) ([]taskpool.Range, bool) {
	workers := taskpool.Workers(opt.Workers)
	edgePar := c.EdgeParallelEligible(useIEP) &&
		opt.EdgeParallel != EdgeParallelOff &&
		(opt.EdgeParallel == EdgeParallelOn || workers > 1)
	nv := g.NumVertices()
	n := nv
	if edgePar {
		n = g.NumAdjSlots()
	}
	unit := func(int) (int, int64) { return n, 1 }
	switch {
	case opt.ChunkSize > 0:
		return taskpool.Cut((nv+opt.ChunkSize-1)/opt.ChunkSize, 1, unit), edgePar
	case workers == 1:
		return taskpool.Cut(1, 1, unit), edgePar
	case c.runsClique(opt.Tier, enumerate):
		return taskpool.Cut(workers*perWorker, 1, unit), edgePar
	case edgePar:
		return taskpool.Cut(workers*perWorker, nv, func(v int) (int, int64) {
			d := g.Degree(uint32(v))
			return d, int64(d)
		}), true
	default:
		return taskpool.Cut(workers*perWorker, nv, func(v int) (int, int64) {
			d := int64(g.Degree(uint32(v)))
			return 1, d * d
		}), false
	}
}

func (c *Config) execute(g *graph.Graph, opt RunOptions, useIEP bool, visit func([]uint32) bool) (int64, bool) {
	nv := g.NumVertices()
	if nv == 0 {
		return 0, true
	}
	workers := taskpool.Workers(opt.Workers)
	var stop, aborted atomic.Bool
	if opt.Budget > 0 {
		timer := time.AfterFunc(opt.Budget, func() {
			aborted.Store(true)
			stop.Store(true)
		})
		defer timer.Stop()
	}
	if ctx := opt.Context; ctx != nil {
		if ctx.Err() != nil {
			return 0, false
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				aborted.Store(true)
				stop.Store(true)
			case <-watchDone:
			}
		}()
	}
	tasks, edgePar := c.RootTasks(g, opt, useIEP, visit != nil, engineTasksPerWorker)
	// Every worker builds its executor on its first task and probes the
	// shared stop flag at root boundaries; both executors take the same
	// vertex- or edge-parallel root tasks.
	ws := make([]tierWorker, workers)
	body := func(w int, rg taskpool.Range) {
		if stop.Load() {
			return
		}
		if ws[w] == nil {
			ws[w] = c.newWorker(g, opt, useIEP, visit, &stop)
		}
		if edgePar {
			ws[w].RunRootEdges(rg.Start, rg.End)
		} else {
			ws[w].RunRoot(rg.Start, rg.End)
		}
	}
	taskpool.RunRanges(workers, tasks, body)
	var total int64
	for _, w := range ws {
		if w != nil {
			total += w.Count()
			opt.Stats.Merge(w.Stats())
		}
	}
	if useIEP {
		total = c.ScaleIEP(total)
	}
	return total, !aborted.Load()
}

// tierWorker is one worker's state on either executor (*runner,
// *codegen.Clique): root tasks over vertex ranges or CSR slot ranges, the raw
// tally, and the telemetry shard (nil when telemetry is off).
type tierWorker interface {
	RunRoot(start, end int)
	RunRootEdges(start, end int)
	Count() int64
	Stats() *telemetry.RunStats
}

// newWorker builds one worker's executor for a run with the given options:
// the clique kernel for a counting run that resolves to it, the interpreter
// otherwise — with a telemetry shard when opt.Stats is set. The clique kernel
// tallies final counts; its configuration's effectiveIEPK is 0, so ScaleIEP
// leaves them alone.
func (c *Config) newWorker(g *graph.Graph, opt RunOptions, useIEP bool, visit func([]uint32) bool, stop *atomic.Bool) tierWorker {
	var st *telemetry.RunStats
	if opt.Stats != nil {
		st = telemetry.NewRunStats(c.n)
	}
	if c.runsClique(opt.Tier, visit != nil) {
		k := codegen.NewClique(g, c.n, stop)
		k.SetStats(st)
		return k
	}
	r := newRunner(c, g, useIEP, visit, stop)
	r.st = st
	return r
}

// runsClique reports whether a run on the given tier executes on the clique
// kernel: a counting run whose tier resolves to it.
func (c *Config) runsClique(tier Tier, enumerate bool) bool {
	return !enumerate && c.ResolveTier(tier) == TierGenerated
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

// Counter is the task-execution primitive for external runtimes (the
// cluster's workers): it runs the configuration over explicit outermost-loop
// vertex or slot ranges and accumulates a raw tally, on the executor a local
// count would pick — the clique kernel for a total-order clique, the
// interpreter otherwise. One Counter per goroutine.
type Counter struct {
	w tierWorker
}

// NewCounter creates a Counter bound to a configuration and graph.
func NewCounter(cfg *Config, g *graph.Graph, useIEP bool) *Counter {
	return NewCounterStop(cfg, g, useIEP, nil)
}

// NewCounterStop is NewCounter with a shared stop flag: once stop becomes
// true the Counter abandons its current range at the next outer-loop
// boundary and every later CountRange/CountEdgeRange call returns
// immediately. A stopped Counter's tally is partial — the flag exists so an
// external runtime (a cluster worker whose master disconnected, a cancelled
// service job) can free its workers without finishing dead work.
func NewCounterStop(cfg *Config, g *graph.Graph, useIEP bool, stop *atomic.Bool) *Counter {
	return &Counter{w: cfg.newWorker(g, RunOptions{}, useIEP, nil, stop)}
}

// CountRange processes outer-loop vertices [start, end) and adds matches to
// the internal tally.
func (c *Counter) CountRange(start, end int) {
	c.w.RunRoot(start, end)
}

// CountEdgeRange processes the CSR adjacency slots [start, end) — the
// edge-parallel task shape. Only valid when the configuration is
// EdgeParallelEligible; the caller must cover every slot exactly once.
func (c *Counter) CountEdgeRange(start, end int) {
	if start < end {
		c.w.RunRootEdges(start, end)
	}
}

// Raw returns the accumulated tally, before any IEP scaling.
func (c *Counter) Raw() int64 { return c.w.Count() }

// ScaleIEP converts a raw tally summed over IEP-enabled Counters into the
// final embedding count.
func (c *Config) ScaleIEP(raw int64) int64 {
	if c.effectiveIEPK() >= 1 {
		return raw * c.iepNum / c.iepDen
	}
	return raw
}

// runner is the per-worker execution state of the interpreter: bound
// vertices, intersection buffers and the IEP calculator. It walks the
// configuration's memoised lowering (codegen.Program) — the same levels,
// residual windows and bounded steps the source backend emits — so the
// loop-nest rules live in codegen.Lower alone. A runner is single-goroutine.
//
// The struct and every slice the nest writes keep off other allocations'
// cache lines (taskpool.LinePad, taskpool.Owned): placed plainly, a worker's
// bound vertices could share a line with another worker's state or with the
// plan's read-hot data, and the cores would trade it on every write.
type runner struct {
	_     taskpool.LinePad
	cfg   *Config
	prog  *codegen.Program
	g     *graph.Graph
	bound []uint32
	bufs  [][]uint32
	visit func([]uint32) bool
	emb   []uint32
	orig  []uint32 // new→old id map of a reordered graph; nil = identity
	stop  *atomic.Bool
	count int64
	st    *telemetry.RunStats // nil when telemetry is disabled

	calc    *iep.Calculator
	iepSets [][]uint32
	iepBMs  []vertexset.Bitmap
	exIn    []uint16
	_       taskpool.LinePad
}

func newRunner(cfg *Config, g *graph.Graph, useIEP bool, visit func([]uint32) bool, stop *atomic.Bool) *runner {
	prog := cfg.program(useIEP)
	r := &runner{
		cfg:   cfg,
		prog:  prog,
		g:     g,
		bound: taskpool.Owned[uint32](cfg.n, cfg.n),
		bufs:  taskpool.Owned[[]uint32](prog.NumBufs, prog.NumBufs),
		visit: visit,
		orig:  g.NewToOld(),
		stop:  stop,
	}
	maxDeg := g.MaxDegree()
	for i := range r.bufs {
		r.bufs[i] = taskpool.Owned[uint32](0, maxDeg)
	}
	if visit != nil {
		r.emb = taskpool.Owned[uint32](cfg.n, cfg.n)
	}
	if kiep := prog.KIEP; prog.IEPCut >= 0 {
		r.calc = iep.NewCalculator(kiep)
		r.iepSets = taskpool.Owned[[]uint32](kiep, kiep)
		if g.NumHubs() > 0 {
			r.iepBMs = taskpool.Owned[vertexset.Bitmap](kiep, kiep)
		}
		r.exIn = taskpool.Owned[uint16](0, len(prog.IEPExclude))
	}
	return r
}

// Count returns the raw tally accumulated so far (before IEP scaling).
func (r *runner) Count() int64 { return r.count }

// Stats returns the worker's telemetry shard (nil when telemetry is off).
func (r *runner) Stats() *telemetry.RunStats { return r.st }

// RunRoot executes the outermost loop over the vertex range [start, end).
//
//graphpi:deterministic
func (r *runner) RunRoot(start, end int) {
	if lst := r.st.Level(0); lst != nil && end > start {
		lst.Scan(end-start, 0)
	}
	for v := start; v < end; v++ {
		if r.stop != nil && r.stop.Load() {
			return
		}
		r.bound[0] = uint32(v)
		switch {
		case r.cfg.n == 1:
			r.leaf()
		case !r.runSteps(0):
		case r.prog.IEPCut == 0:
			r.count += r.iepCount()
		default:
			r.run(1)
		}
	}
}

// RunRootEdges executes the flattened first two loops over the CSR slot
// range [start, end). Each slot is one directed edge (v0, w); tasks are
// therefore proportional to edges, so a hub's adjacency spreads across many
// tasks instead of serializing the chunk that owns the hub.
//
//graphpi:deterministic
func (r *runner) RunRootEdges(start, end int) {
	g := r.g
	v := g.SlotOwner(start)
	for start < end {
		if r.stop != nil && r.stop.Load() {
			return
		}
		_, ve := g.AdjSlotRange(v)
		if ve <= start {
			v++ // zero-degree vertex or finished adjacency
			continue
		}
		stop := ve
		if stop > end {
			stop = end
		}
		r.bound[0] = v
		if lst := r.st.Level(0); lst != nil {
			lst.Scan(1, 0)
		}
		if r.runSteps(0) {
			r.runList(1, g.AdjSlots(start, stop))
		}
		start = stop
		v++
	}
}

// run executes the loop at the given depth (1 ≤ depth ≤ n-1).
func (r *runner) run(depth int) {
	cand := r.prog.Levels[depth].Cand
	switch cand.Kind {
	case schedule.CandFull:
		// Unconstrained loop over all data vertices (only inefficient
		// schedules reach this: Figure 9 measures them too).
		r.runFull(depth)
	case schedule.CandNeighborhood:
		r.runList(depth, r.g.Neighbors(r.bound[cand.Parent]))
	default:
		r.runList(depth, r.bufs[cand.Buf])
	}
}

// runList executes the loop at depth over an explicit sorted candidate set,
// narrowed by the level's residual window — the restrictions the step that
// built the set could not apply yet.
func (r *runner) runList(depth int, cands []uint32) {
	lv := &r.prog.Levels[depth]
	raw := len(cands)
	if len(lv.Lowers)+len(lv.Uppers) > 0 {
		lo, hi := codegen.Bounds(r.bound, lv.Lowers, lv.Uppers)
		cands = vertexset.Window(cands, lo, hi)
	}
	lst := r.st.Level(depth)
	if lst != nil {
		lst.Scan(len(cands), raw-len(cands))
		defer lst.ScanTimerEnd(lst.ScanTimerStart())
	}
	if lv.IsLeaf && r.visit == nil && len(lv.Dup) == 0 {
		// Counting leaf with nothing left to filter: a length add.
		r.count += int64(len(cands))
		return
	}
next:
	for _, v := range cands {
		// Dup lists only the earlier positions whose distinctness is not
		// already implied by candidate provenance or a restriction —
		// usually none, so the O(depth) scan of the seed engine disappears.
		for _, p := range lv.Dup {
			if r.bound[p] == v {
				if lst != nil {
					lst.DupSkips++
				}
				continue next
			}
		}
		r.bound[depth] = v
		if !r.descend(lv) {
			return
		}
	}
}

// runFull is the CandFull variant of runList: candidates are all data
// vertices inside the restriction window.
func (r *runner) runFull(depth int) {
	lv := &r.prog.Levels[depth]
	nv := r.g.NumVertices()
	lo, hi := codegen.Bounds(r.bound, lv.Lowers, lv.Uppers)
	start, end := int(lo), nv
	if uint64(hi) < uint64(end) {
		end = int(hi)
	}
	lst := r.st.Level(depth)
	if lst != nil {
		size := max(end-start, 0)
		lst.Scan(size, nv-size)
		defer lst.ScanTimerEnd(lst.ScanTimerStart())
	}
next:
	for vi := start; vi < end; vi++ {
		v := uint32(vi)
		for _, p := range lv.Dup {
			if r.bound[p] == v {
				if lst != nil {
					lst.DupSkips++
				}
				continue next
			}
		}
		r.bound[depth] = v
		if !r.descend(lv) {
			return
		}
	}
}

// descend runs everything below a freshly bound vertex of level lv: the
// leaf, or the level's hoisted intersections followed — unless one of them
// came back empty — by the IEP evaluation or the next loop. It reports false
// when the run was stopped and the scan should return.
func (r *runner) descend(lv *codegen.Level) bool {
	switch {
	case lv.IsLeaf:
		r.leaf()
	case !r.runSteps(lv.Depth):
		return true
	case lv.AtCut:
		r.count += r.iepCount()
		return true
	default:
		r.run(lv.Depth + 1)
	}
	return r.stop == nil || !r.stop.Load()
}

// runSteps executes the intersections hoisted to this depth, each trimmed to
// the window the lowering gave it and dispatched per call by the bounded
// hybrid kernel (hub-bitmap probe, merge or gallop). It stops at the first
// empty output and reports false: the prefix cannot be extended (see
// codegen.Step), so the caller skips the remaining steps, every deeper loop
// and the IEP evaluation.
func (r *runner) runSteps(depth int) bool {
	steps := r.prog.Levels[depth].Steps
	if len(steps) == 0 {
		return true
	}
	lst := r.st.Level(depth)
	for i := range steps {
		stp := &steps[i]
		lo, hi := codegen.Bounds(r.bound, stp.Lowers, stp.Uppers)
		rv := r.bound[stp.Depth]
		var left []uint32
		var leftBM vertexset.Bitmap
		if stp.LeftBuf >= 0 {
			left = r.bufs[stp.LeftBuf]
		} else {
			lp := r.bound[stp.LeftParent]
			left, leftBM = r.g.Neighbors(lp), r.g.HubBitmap(lp)
		}
		out, k := vertexset.IntersectWindow(r.bufs[stp.Out], left, r.g.Neighbors(rv), leftBM, r.g.HubBitmap(rv), lo, hi)
		r.bufs[stp.Out] = out
		if lst != nil {
			lst.Intersect(int(k))
		}
		if len(out) == 0 {
			if lst != nil {
				lst.Cuts++
			}
			return false
		}
	}
	return true
}

// leaf records one embedding, translating back to original vertex ids when
// the data graph is a degree-ordered relabeling.
func (r *runner) leaf() {
	r.count++
	if r.visit == nil {
		return
	}
	if r.orig != nil {
		for i, v := range r.bound {
			r.emb[r.cfg.order[i]] = r.orig[v]
		}
	} else {
		for i, v := range r.bound {
			r.emb[r.cfg.order[i]] = v
		}
	}
	if !r.visit(r.emb) {
		r.stop.Store(true)
	}
}

// iepCount computes the inclusion–exclusion count of the innermost k loops
// given the currently bound outer prefix (paper Figure 6: |S_IEP|). Hub
// neighborhoods among the candidate sets contribute their bitmaps so the
// calculator's internal intersections can use the bitmap kernel; which bound
// vertices lie in which set is the lowering's ExcludedIn.
func (r *runner) iepCount() int64 {
	prog := r.prog
	if lst := r.st.Level(prog.IEPCut); lst != nil {
		lst.IEPCounts++
	}
	for i, src := range prog.IEP {
		var bm vertexset.Bitmap
		if src.Parent >= 0 {
			p := r.bound[src.Parent]
			r.iepSets[i], bm = r.g.Neighbors(p), r.g.HubBitmap(p)
		} else {
			r.iepSets[i] = r.bufs[src.Buf]
		}
		if r.iepBMs != nil {
			r.iepBMs[i] = bm
		}
	}
	r.exIn = prog.ExcludedIn(r.exIn, r.bound, r.iepSets, r.iepBMs)
	return r.calc.CountIn(r.iepSets, r.iepBMs, r.exIn)
}
