package core

import (
	"context"
	"sync/atomic"

	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/iep"
	"graphpi/internal/schedule"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// RunOptions controls the execution of a compiled configuration.
type RunOptions struct {
	// Workers is the number of goroutines (< 1 → GOMAXPROCS). The result
	// is identical regardless of worker count.
	Workers int
	// ChunkSize sets the task granularity in outermost-loop vertices:
	// < 1 → cut by predicted work (RootTasks); > 0 → fixed-size test hook,
	// ⌈|V|/ChunkSize⌉ equal-size tasks of the binding's task space.
	ChunkSize int
	// Stats, when non-nil, enables per-level telemetry: every worker
	// records into a private shard and the shards are merged into Stats
	// when the run returns. The counts themselves are bit-identical with
	// and without Stats; the disabled path pays one nil check per
	// candidate scan. Allocate with telemetry.NewRunStats(cfg.N()).
	Stats *telemetry.RunStats
	// work, when set, is an orientation probe's work cap: the workers stop
	// the run once together they have bound more candidates than it allows.
	// Needs Stats.
	work *workCap
}

// Bound is a configuration bound to one way of running it: the lowered nest
// the interpreter walks — the nest cut for the inclusion–exclusion suffix
// (paper §IV-D) or the full enumeration nest — and the executor that runs it,
// the clique kernel or the interpreter. Config.Bind makes one; runs, root-task
// cuts, cluster counters, the IEP scaling and drift reports read their
// decisions from it, so none of them takes an IEP flag or a tier.
type Bound struct {
	cfg    *Config
	prog   *codegen.Program
	clique bool // runs on the clique kernel
}

// Bind fixes how counting runs of c execute. iep asks for the IEP nest: c
// walks it when it has a usable IEP suffix, and otherwise counts exactly on
// the full nest. tier picks the executor: the clique kernel when tier is
// TierAuto or TierGenerated and c is a total-order clique, the interpreter
// otherwise.
func (c *Config) Bind(iep bool, tier Tier) Bound {
	b := Bound{cfg: c, prog: c.progEnum}
	if iep && c.progIEP != nil {
		b.prog = c.progIEP
	}
	b.clique = c.clique && (tier == TierAuto || tier == TierGenerated)
	return b
}

// Config returns the configuration b runs.
func (b Bound) Config() *Config { return b.cfg }

// IEP reports whether b walks the IEP nest, whose raw tallies ScaleIEP
// corrects.
func (b Bound) IEP() bool { return b.prog.IEPCut >= 0 }

// Tier reports the executor b runs on: TierGenerated (the clique kernel) or
// TierInterpret.
func (b Bound) Tier() Tier {
	if b.clique {
		return TierGenerated
	}
	return TierInterpret
}

// Run counts the embeddings of b's pattern on g. With the full nest each
// embedding counts once if the restriction set is complete, and |Aut| times
// with an empty set; the IEP nest returns the same numbers, typically far
// faster. The count is identical for every worker count and task cut.
//
// ctx cancels the run cooperatively: every worker observes cancellation at
// its next outer-loop vertex (or edge-slot group) boundary and returns, so
// the workers are freed within one task even when the full search would run
// for minutes; a context deadline is the way to bound a run's time. A
// cancelled run returns ctx.Err() with the partial tally; a nil error means
// the count is exact.
//
//graphpi:deterministic
func (b Bound) Run(ctx context.Context, g *graph.Graph, opt RunOptions) (int64, error) {
	return b.execute(ctx.Done(), g, opt, nil), ctx.Err()
}

// Count is Run for callers that hold no context (the facade's context-free
// methods): the run cannot be cancelled.
//
//graphpi:deterministic
func (b Bound) Count(g *graph.Graph, opt RunOptions) int64 {
	return b.execute(nil, g, opt, nil)
}

// Enumerate invokes visit for every embedding found, on the interpreter
// walking the full nest. The slice passed to visit is indexed by original
// pattern vertex and reused between calls — copy it to retain. Embeddings are
// reported in original vertex ids even on a Reorder()ed graph. visit may be
// invoked concurrently from different workers when opt.Workers > 1; returning
// false stops the enumeration. Enumerate returns the number of embeddings
// visited (if stopped early, the tally reflects the visits that happened).
// ctx cancels the run as it cancels Run: no visits happen after the workers
// observe it, and the error is ctx's.
func (c *Config) Enumerate(ctx context.Context, g *graph.Graph, opt RunOptions, visit func([]uint32) bool) (int64, error) {
	return c.enumerator().execute(ctx.Done(), g, opt, visit), ctx.Err()
}

// EnumerateAll is Enumerate for callers that hold no context: only visit can
// stop it.
func (c *Config) EnumerateAll(g *graph.Graph, opt RunOptions, visit func([]uint32) bool) int64 {
	return c.enumerator().execute(nil, g, opt, visit)
}

// enumerator is the binding every enumeration runs: the interpreter on the
// full nest.
func (c *Config) enumerator() Bound { return Bound{cfg: c, prog: c.progEnum} }

// slotTasks reports whether b's root tasks are CSR slot ranges: the first two
// loops flatten into an edge sweep when depth 1 iterates N(v0) and is not
// already consumed by the IEP suffix. Every clique binding flattens (K≥3, and
// the clique kernel runs the full nest). The bindings that cannot — a
// one-vertex pattern, an IEP cut right after depth 0 (paths, stars), a
// depth-1 loop over another set — take outermost-loop vertex ranges.
func (b Bound) slotTasks() bool {
	if b.cfg.n < 2 || b.prog.IEPCut == 0 { // IEP takes over right after depth 0
		return false
	}
	cand := b.cfg.plan.Cand[1]
	return cand.Kind == schedule.CandNeighborhood && cand.Parent == 0
}

// taskSpace is the size of b's task space on g: its CSR slots when b takes
// slot tasks, its vertices otherwise.
func (b Bound) taskSpace(g *graph.Graph) int {
	if b.slotTasks() {
		return g.NumAdjSlots()
	}
	return g.NumVertices()
}

// engineTasksPerWorker is how many root tasks a local run cuts per worker:
// enough for self-scheduling from the shared cursor to absorb a task that
// runs long, few enough that claiming one stays cheap.
const engineTasksPerWorker = 64

// RootTasks cuts a run's outermost loops into root tasks in b's task space:
// CSR slot ranges when b flattens its first two loops into an edge sweep, so
// that a hub's adjacency can spread over many tasks instead of serializing
// the one that owns it (paper §IV-E's skew problem), and outermost-loop
// vertex ranges for the bindings that cannot flatten. It is the one cutter
// behind local runs and the cluster master: opt.Workers is the total worker
// count the tasks are for and perWorker how many tasks each should get.
// Counter.CountRange takes the ranges back, and a Counter of the same
// binding reads them in the same space.
//
// Tasks hold about equal predicted work (taskpool.Cut). For the interpreter a
// root of degree d weighs d²: as one vertex task, or as d slots of weight d.
// The clique kernel takes unit weights, i.e. equal-size cuts: a root split
// over several slot tasks rebuilds its candidate rows once per task, so
// cutting its hubs finer costs more than it balances. The weights come from
// the CSR offsets in one pass, with no per-slot array. An explicit
// opt.ChunkSize is the fixed-size test hook: ⌈|V|/ChunkSize⌉ equal-size
// tasks. One worker with no ChunkSize gets the whole space as one task, as it
// has nobody to balance against.
func (b Bound) RootTasks(g *graph.Graph, opt RunOptions, perWorker int) []taskpool.Range {
	workers := taskpool.Workers(opt.Workers)
	nv, n := g.NumVertices(), b.taskSpace(g)
	unit := func(int) (int, int64) { return n, 1 }
	switch {
	case opt.ChunkSize > 0:
		return taskpool.Cut((nv+opt.ChunkSize-1)/opt.ChunkSize, 1, unit)
	case workers == 1:
		return taskpool.Cut(1, 1, unit)
	case b.clique:
		return taskpool.Cut(workers*perWorker, 1, unit)
	case b.slotTasks():
		return taskpool.Cut(workers*perWorker, nv, func(v int) (int, int64) {
			d := g.Degree(uint32(v))
			return d, int64(d)
		})
	default:
		return taskpool.Cut(workers*perWorker, nv, func(v int) (int, int64) {
			d := int64(g.Degree(uint32(v)))
			return 1, d * d
		})
	}
}

// execute runs b over g, stopping cooperatively once done closes (a nil done
// never does), and returns the scaled tally.
func (b Bound) execute(done <-chan struct{}, g *graph.Graph, opt RunOptions, visit func([]uint32) bool) int64 {
	nv := g.NumVertices()
	if nv == 0 {
		return 0
	}
	workers := taskpool.Workers(opt.Workers)
	var stop atomic.Bool
	if done != nil {
		select {
		case <-done:
			return 0
		default:
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-watchDone:
			}
		}()
	}
	tasks := b.RootTasks(g, opt, engineTasksPerWorker)
	// Every worker builds its executor on its first task and probes the
	// shared stop flag at root boundaries.
	ws := make([]tierWorker, workers)
	body := func(w int, rg taskpool.Range) {
		if stop.Load() {
			return
		}
		if ws[w] == nil {
			ws[w] = b.newWorker(g, opt, visit, &stop)
		}
		ws[w].RunTask(rg.Start, rg.End)
	}
	taskpool.RunRanges(workers, tasks, body)
	var total int64
	for _, w := range ws {
		if w != nil {
			total += w.Count()
			opt.Stats.Merge(w.Stats())
		}
	}
	return b.ScaleIEP(total)
}

// tierWorker is one worker's state on either executor (*runner,
// *codegen.Clique): root tasks in its binding's task space (Bound.RootTasks),
// the raw tally, and the telemetry shard (nil when telemetry is off).
type tierWorker interface {
	RunTask(start, end int)
	Count() int64
	Stats() *telemetry.RunStats
}

// newWorker builds one worker's executor: the clique kernel when b runs on
// it, the interpreter walking b's nest otherwise — with a telemetry shard
// when opt.Stats is set. The clique kernel tallies final counts; its
// configuration has no IEP nest, so ScaleIEP leaves them alone.
func (b Bound) newWorker(g *graph.Graph, opt RunOptions, visit func([]uint32) bool, stop *atomic.Bool) tierWorker {
	var st *telemetry.RunStats
	if opt.Stats != nil {
		st = telemetry.NewRunStats(b.cfg.n)
	}
	if b.clique {
		k := codegen.NewClique(g, b.cfg.n, stop)
		k.SetStats(st)
		return k
	}
	r := newRunner(b.cfg, b.prog, g, visit, stop)
	r.st, r.work, r.slots = st, opt.work, b.slotTasks()
	return r
}

// Counter is the task-execution primitive for external runtimes (the
// cluster's workers): it runs a bound configuration over explicit root tasks
// and accumulates a raw tally on the bound executor. One Counter per
// goroutine.
type Counter struct {
	w tierWorker
}

// NewCounter creates a Counter running b on g. stop, a shared flag that may
// be nil, lets an external runtime (a cluster worker whose master
// disconnected, a cancelled service job) free its workers without finishing
// dead work: once it becomes true the Counter abandons its current range at
// the next outer-loop boundary and every later CountRange call returns
// immediately, leaving a partial tally.
func NewCounter(b Bound, g *graph.Graph, stop *atomic.Bool) *Counter {
	return &Counter{w: b.newWorker(g, RunOptions{}, nil, stop)}
}

// CountRange runs the root task [start, end) of the binding's task space, as
// Bound.RootTasks cuts it — CSR slots or outermost-loop vertices — and adds
// its matches to the internal tally. The caller must cover the space exactly
// once across the Counters whose tallies it sums.
func (c *Counter) CountRange(start, end int) {
	c.w.RunTask(start, end)
}

// Raw returns the accumulated tally, before any IEP scaling.
func (c *Counter) Raw() int64 { return c.w.Count() }

// ScaleIEP converts a raw tally summed over b's Counters into the final
// embedding count: the IEP nest's over-count correction, the identity on the
// full nest.
func (b Bound) ScaleIEP(raw int64) int64 {
	if b.IEP() {
		return raw * b.prog.IEPNum / b.prog.IEPDen
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
	work  *workCap            // nil unless the run is an orientation probe
	// charged is the work this runner has charged to work so far.
	charged uint64
	// slots: root tasks are CSR slot ranges (Bound.slotTasks), else vertex
	// ranges.
	slots bool

	// memos[b] serves the repeats of the loop-invariant step that outputs
	// buffer b; nil when that step is not marked.
	memos []*memo
	// rows[p] is the bit row of N(v_p) that the steps marked with Row p probe
	// (codegen.Step.Row); it has storage only when some step is marked so.
	rows [codegen.RowPositions]vertexset.Row

	calc    *iep.Calculator
	iepSets [][]uint32
	iepBMs  []vertexset.Bitmap
	exIn    []uint16
	_       taskpool.LinePad
}

func newRunner(cfg *Config, prog *codegen.Program, g *graph.Graph, visit func([]uint32) bool, stop *atomic.Bool) *runner {
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
	r.memos = make([]*memo, prog.NumBufs)
	var rowUsed [codegen.RowPositions]bool
	for _, lv := range prog.Levels {
		for _, st := range lv.Steps {
			if st.Memo != nil {
				r.memos[st.Out] = newMemo(len(st.Memo), maxDeg)
			}
			if st.Row >= 0 && !rowUsed[st.Row] {
				w := vertexset.BitmapWords(g.NumVertices())
				r.rows[st.Row], rowUsed[st.Row] = vertexset.NewRow(taskpool.Owned[uint64](w, w)), true
			}
		}
	}
	for i := range r.bufs {
		if r.memos[i] == nil { // a memoised step's output lives in its memo
			r.bufs[i] = taskpool.Owned[uint32](0, maxDeg)
		}
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

// RunTask executes one root task: the CSR slot range [start, end) when the
// binding flattens its first two loops, the vertex range otherwise.
//
//graphpi:deterministic
func (r *runner) RunTask(start, end int) {
	if r.slots {
		r.runSlots(start, end)
	} else {
		r.runVertices(start, end)
	}
}

// runVertices executes the outermost loop over the vertex range [start, end):
// the root tasks of the bindings that cannot flatten.
func (r *runner) runVertices(start, end int) {
	if lst := r.st.Level(0); lst != nil && end > start {
		lst.Scan(end-start, 0)
	}
	for v := start; v < end; v++ {
		if r.work != nil {
			r.work.charge(r)
		}
		if r.stop != nil && r.stop.Load() {
			return
		}
		r.bind(0, uint32(v))
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

// runSlots executes the flattened first two loops over the CSR slot range
// [start, end). Each slot is one directed edge (v0, w); tasks are therefore
// proportional to edges, so a hub's adjacency spreads across many tasks
// instead of serializing the one that owns the hub.
func (r *runner) runSlots(start, end int) {
	if start >= end {
		return
	}
	g := r.g
	v := g.SlotOwner(start)
	for start < end {
		if r.work != nil {
			r.work.charge(r)
		}
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
		r.bind(0, v)
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
		r.bind(depth, v)
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
		r.bind(depth, v)
		if !r.descend(lv) {
			return
		}
	}
}

// bind binds v at depth. An enumeration also writes v's original id into the
// embedding slot of the pattern vertex the depth searches for, once per
// binding, so that a leaf hands the embedding to visit as it stands.
func (r *runner) bind(depth int, v uint32) {
	r.bound[depth] = v
	if r.emb != nil {
		if r.orig != nil {
			v = r.orig[v]
		}
		r.emb[r.cfg.order[depth]] = v
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
// hybrid kernel (hub-bitmap probe, merge or gallop) — or, for a step whose
// left operand is N(v0) or N(v1), by the row kernel, which probes the
// worker's bit row of that neighbourhood instead of merging (the row is
// built on first use under a newly bound vertex; see vertexset.IntersectRow).
// A loop-invariant step first asks its memo, which answers a key it has seen
// under the current context without a kernel. runSteps stops at the first
// empty output — computed or served — and reports false: the prefix cannot be
// extended (see codegen.Step), so the caller skips the remaining steps, every
// deeper loop and the IEP evaluation.
func (r *runner) runSteps(depth int) bool {
	steps := r.prog.Levels[depth].Steps
	if len(steps) == 0 {
		return true
	}
	lst := r.st.Level(depth)
	for i := range steps {
		stp := &steps[i]
		rv := r.bound[stp.Depth]
		dst, m := r.bufs[stp.Out], r.memos[stp.Out]
		var out []uint32
		var slot int
		served := false
		if m != nil {
			out, slot, served = m.lookup(r.bound, stp.Memo, rv)
			dst = m.scratch
		}
		if served {
			if lst != nil {
				lst.MemoHit()
			}
		} else {
			lo, hi := codegen.Bounds(r.bound, stp.Lowers, stp.Uppers)
			var left []uint32
			var leftBM vertexset.Bitmap
			if stp.LeftBuf >= 0 {
				left = r.bufs[stp.LeftBuf]
			} else {
				lp := r.bound[stp.LeftParent]
				left, leftBM = r.g.Neighbors(lp), r.g.HubBitmap(lp)
			}
			var k vertexset.Kernel
			if stp.Row >= 0 {
				out, k = vertexset.IntersectRow(dst, left, r.g.Neighbors(rv), leftBM, r.g.HubBitmap(rv), &r.rows[stp.Row], lo, hi)
			} else {
				out, k = vertexset.IntersectWindow(dst, left, r.g.Neighbors(rv), leftBM, r.g.HubBitmap(rv), lo, hi)
			}
			if lst != nil {
				lst.Intersect(int(k))
			}
			if m != nil {
				m.store(slot, rv, out)
			}
		}
		r.bufs[stp.Out] = out
		if len(out) == 0 {
			if lst != nil {
				lst.Cuts++
			}
			return false
		}
	}
	return true
}

// leaf records one embedding; bind has already written it in original
// vertex ids.
func (r *runner) leaf() {
	r.count++
	if r.visit != nil && !r.visit(r.emb) {
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
