package codegen

import (
	"sync/atomic"

	"graphpi/internal/auxgraph"
	"graphpi/internal/graph"
	"graphpi/internal/iep"
	"graphpi/internal/schedule"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// Kernel is a Program compiled against one data graph: a chain of per-level
// closures with the specialization decisions (window shape, duplicate
// checks, kernel choice, leaf monomorphization) resolved once at build time
// instead of per iteration. A Kernel is immutable and shared by every
// worker; the mutable execution state lives in State.
type Kernel struct {
	prog    *Program
	g       *graph.Graph
	hasHubs bool
	n       int

	// root runs the loop nest below one bound root vertex (bound[0] set).
	root func(*State)
	// steps0 runs the (rare) intersections hoisted to depth 0; false cuts
	// the root (see compileSteps).
	steps0 func(*State) bool
	// scan1 runs the depth-1 loop over an explicit candidate slice — the
	// entry point for edge-parallel slot groups. nil when depth 1 is not
	// a list scan (or the nest ends at the root).
	scan1 func(*State, []uint32)
	// iepFn computes the IEP suffix count for the bound prefix.
	iepFn func(*State) int64
}

// State is one worker's execution state for a Kernel: bound vertices,
// intersection buffers, tally and the IEP calculator. Single-goroutine. The
// struct and every slice the nest writes keep off other allocations' cache
// lines (taskpool.LinePad, taskpool.Owned).
type State struct {
	_     taskpool.LinePad
	k     *Kernel
	g     *graph.Graph
	nv    int
	bound []uint32
	bufs  [][]uint32
	stop  *atomic.Bool
	count int64
	st    *telemetry.RunStats // nil when telemetry is disabled

	calc    *iep.Calculator
	iepSets [][]uint32
	iepBMs  []vertexset.Bitmap
	exIn    []uint16

	// aux is the worker's auxiliary-graph scratch (nil when the run does
	// not enable pruning); aux-marked step closures probe it and fall back
	// to the full-row path on a miss, so counts never depend on it.
	aux *auxgraph.Aux
	_   taskpool.LinePad
}

// Compile binds a lowered Program to a data graph, building the closure
// chain. The chain is constructed innermost-out so every level captures its
// successor directly — no per-iteration dispatch survives to run time.
//
//graphpi:deterministic
func Compile(prog *Program, g *graph.Graph) *Kernel {
	k := &Kernel{
		prog:    prog,
		g:       g,
		hasHubs: g.NumHubs() > 0,
		n:       prog.N,
	}
	if prog.IEPCut >= 0 {
		k.iepFn = k.compileIEP()
	}
	// The deepest level actually executed: the IEP cut when present.
	last := prog.N - 1
	if prog.IEPCut >= 0 {
		last = prog.IEPCut
	}
	// entries[d] executes the whole loop at depth d (fetch + scan);
	// scans[d] is the scan half, for callers that supply the candidates.
	entries := make([]func(*State), prog.N)
	var scan1 func(*State, []uint32)
	for d := last; d >= 1; d-- {
		lv := prog.Levels[d]
		var next func(*State)
		if d < last {
			next = entries[d+1]
		}
		if lv.Cand.Kind == schedule.CandFull {
			entries[d] = k.compileFull(lv, next)
			continue
		}
		scan := k.compileScan(lv, next)
		if d == 1 {
			scan1 = scan
		}
		entries[d] = k.compileEntry(lv, scan)
	}
	k.steps0 = k.compileSteps(prog.Levels[0].Steps, 0)
	switch {
	case prog.N == 1:
		// RunRoot short-circuits; no chain to build.
	case prog.IEPCut == 0:
		// RunRoot already ran steps0; IEP consumes everything after the
		// root (no depth-1 scan exists, matching EdgeParallelEligible's
		// refusal).
		iepFn := k.iepFn
		k.root = func(s *State) { s.count += iepFn(s) }
	default:
		k.root = entries[1]
		k.scan1 = scan1
	}
	return k
}

// NewState allocates one worker's execution state. stop may be nil; when
// set, a true value makes the runs below return at the next outer-loop
// boundary with a partial tally.
func (k *Kernel) NewState(stop *atomic.Bool) *State {
	s := &State{
		k:     k,
		g:     k.g,
		nv:    k.g.NumVertices(),
		bound: taskpool.Owned[uint32](k.n, k.n),
		bufs:  taskpool.Owned[[]uint32](k.prog.NumBufs, k.prog.NumBufs),
		stop:  stop,
	}
	maxDeg := k.g.MaxDegree()
	for i := range s.bufs {
		s.bufs[i] = taskpool.Owned[uint32](0, maxDeg)
	}
	if kiep := k.prog.KIEP; k.prog.IEPCut >= 0 {
		s.calc = iep.NewCalculator(kiep)
		s.iepSets = taskpool.Owned[[]uint32](kiep, kiep)
		if k.hasHubs {
			s.iepBMs = taskpool.Owned[vertexset.Bitmap](kiep, kiep)
		}
		s.exIn = taskpool.Owned[uint16](0, len(k.prog.IEPExclude))
	}
	return s
}

// EdgeCapable reports whether RunRootEdges may be used (the nest has a
// depth-1 list scan not consumed by the IEP suffix).
func (k *Kernel) EdgeCapable() bool { return k.scan1 != nil }

// Count returns the raw tally accumulated so far (before IEP scaling).
func (s *State) Count() int64 { return s.count }

// SetStats enables per-level telemetry for this worker state; the closures
// record into it when non-nil. Stats returns the shard for merging (nil when
// telemetry was never enabled). Counts are bit-identical either way.
func (s *State) SetStats(st *telemetry.RunStats) { s.st = st }
func (s *State) Stats() *telemetry.RunStats      { return s.st }

// SetAux attaches auxiliary-graph scratch to this worker state; the kernel's
// aux-marked closures serve intersections from it when possible. Counts are
// bit-identical with and without scratch.
func (s *State) SetAux(a *auxgraph.Aux) { s.aux = a }

// beginAuxRoot switches the aux scratch to a new root subtree. One branch
// when aux is disabled; the Neighbors fetch is the root row the engine reads
// anyway.
func (s *State) beginAuxRoot(v uint32) {
	if s.aux == nil {
		return
	}
	s.aux.BeginRoot(v, s.g.Neighbors(v), s.g.HubBitmap(v))
}

// RunRoot executes the outermost loop over the vertex range [start, end).
//
//graphpi:deterministic
func (s *State) RunRoot(start, end int) {
	k := s.k
	if lst := s.st.Level(0); lst != nil && end > start {
		lst.Scan(end-start, 0)
	}
	if k.n == 1 {
		if s.stop != nil && s.stop.Load() {
			return
		}
		s.count += int64(end - start)
		return
	}
	steps0, root := k.steps0, k.root
	for v := start; v < end; v++ {
		if s.stop != nil && s.stop.Load() {
			return
		}
		s.bound[0] = uint32(v)
		s.beginAuxRoot(uint32(v))
		if steps0 != nil && !steps0(s) {
			continue
		}
		root(s)
	}
}

// RunRootEdges executes the flattened first two loops over the CSR slot
// range [start, end). Only valid when EdgeCapable; the caller must cover
// every slot exactly once.
//
//graphpi:deterministic
func (s *State) RunRootEdges(start, end int) {
	k := s.k
	g := s.g
	steps0, scan1 := k.steps0, k.scan1
	lst := s.st.Level(0)
	v := g.SlotOwner(start)
	for start < end {
		if s.stop != nil && s.stop.Load() {
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
		s.bound[0] = v
		s.beginAuxRoot(v)
		if lst != nil {
			lst.Scan(1, 0)
		}
		if steps0 == nil || steps0(s) {
			scan1(s, g.AdjSlots(start, stop))
		}
		start = stop
		v++
	}
}

// compileEntry wires a list level's candidate fetch to its scan.
func (k *Kernel) compileEntry(lv Level, scan func(*State, []uint32)) func(*State) {
	if lv.Cand.Kind == schedule.CandNeighborhood {
		parent := lv.Cand.Parent
		return func(s *State) { scan(s, s.g.Neighbors(s.bound[parent])) }
	}
	buf := lv.Cand.Buf
	return func(s *State) { scan(s, s.bufs[buf]) }
}

// compileScan builds the loop body of one list level, specialized on its
// role (leaf / IEP cut / interior) and on whether duplicate checks survive.
// The leaf of a counting run monomorphizes to a single length add — the
// interpreter's per-candidate bind, leaf call and stop probe all vanish.
func (k *Kernel) compileScan(lv Level, next func(*State)) func(*State, []uint32) {
	narrow := compileNarrow(lv.Lowers, lv.Uppers)
	steps := k.compileSteps(lv.Steps, lv.Depth)
	dup := lv.Dup
	d := lv.Depth
	switch {
	case lv.IsLeaf && len(dup) == 0:
		if narrow == nil {
			return func(s *State, cands []uint32) {
				if lst := s.st.Level(d); lst != nil {
					lst.Scan(len(cands), 0)
				}
				s.count += int64(len(cands))
			}
		}
		return func(s *State, cands []uint32) {
			raw := len(cands)
			cands = narrow(s, cands)
			if lst := s.st.Level(d); lst != nil {
				lst.Scan(len(cands), raw-len(cands))
			}
			s.count += int64(len(cands))
		}
	case lv.IsLeaf:
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			lst := s.st.Level(d)
			if lst != nil {
				lst.Scan(len(cands), raw-len(cands))
			}
		nextCand:
			for _, v := range cands {
				for _, p := range dup {
					if s.bound[p] == v {
						if lst != nil {
							lst.DupSkips++
						}
						continue nextCand
					}
				}
				s.count++
			}
		}
	case lv.AtCut:
		iepFn := k.iepFn
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			lst := s.st.Level(d)
			if lst != nil {
				lst.Scan(len(cands), raw-len(cands))
				defer lst.ScanTimerEnd(lst.ScanTimerStart())
			}
		nextCand:
			for _, v := range cands {
				for _, p := range dup {
					if s.bound[p] == v {
						if lst != nil {
							lst.DupSkips++
						}
						continue nextCand
					}
				}
				s.bound[d] = v
				if steps != nil && !steps(s) {
					continue
				}
				s.count += iepFn(s)
			}
		}
	case len(dup) == 0:
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			if lst := s.st.Level(d); lst != nil {
				lst.Scan(len(cands), raw-len(cands))
				defer lst.ScanTimerEnd(lst.ScanTimerStart())
			}
			for _, v := range cands {
				s.bound[d] = v
				if steps != nil && !steps(s) {
					continue
				}
				next(s)
				if s.stop != nil && s.stop.Load() {
					return
				}
			}
		}
	default:
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			lst := s.st.Level(d)
			if lst != nil {
				lst.Scan(len(cands), raw-len(cands))
				defer lst.ScanTimerEnd(lst.ScanTimerStart())
			}
		nextCand:
			for _, v := range cands {
				for _, p := range dup {
					if s.bound[p] == v {
						if lst != nil {
							lst.DupSkips++
						}
						continue nextCand
					}
				}
				s.bound[d] = v
				if steps != nil && !steps(s) {
					continue
				}
				next(s)
				if s.stop != nil && s.stop.Load() {
					return
				}
			}
		}
	}
}

// compileFull builds the loop body of a CandFull level: a sweep over the
// whole vertex range inside the restriction window (only inefficient
// schedules reach this).
func (k *Kernel) compileFull(lv Level, next func(*State)) func(*State) {
	bounds := compileWindow(lv.Lowers, lv.Uppers)
	steps := k.compileSteps(lv.Steps, lv.Depth)
	dup := lv.Dup
	d := lv.Depth
	iepFn := k.iepFn
	atCut := lv.AtCut
	isLeaf := lv.IsLeaf
	if isLeaf && len(dup) == 0 {
		return func(s *State) {
			start, end := bounds(s)
			if lst := s.st.Level(d); lst != nil {
				size := end - start
				if size < 0 {
					size = 0
				}
				lst.Scan(size, s.nv-size)
			}
			if end > start {
				s.count += int64(end - start)
			}
		}
	}
	return func(s *State) {
		start, end := bounds(s)
		lst := s.st.Level(d)
		if lst != nil {
			size := end - start
			if size < 0 {
				size = 0
			}
			lst.Scan(size, s.nv-size)
			defer lst.ScanTimerEnd(lst.ScanTimerStart())
		}
	nextCand:
		for vi := start; vi < end; vi++ {
			v := uint32(vi)
			for _, p := range dup {
				if s.bound[p] == v {
					if lst != nil {
						lst.DupSkips++
					}
					continue nextCand
				}
			}
			switch {
			case isLeaf:
				s.count++
			case atCut:
				s.bound[d] = v
				if steps != nil && !steps(s) {
					continue
				}
				s.count += iepFn(s)
			default:
				s.bound[d] = v
				if steps != nil && !steps(s) {
					continue
				}
				next(s)
				if s.stop != nil && s.stop.Load() {
					return
				}
			}
		}
	}
}

// compileNarrow bakes a level's residual restriction window — what the step
// that built its candidates did not already apply — into a candidate-slice
// narrowing closure reading fixed bound positions. nil means nothing is left
// to narrow.
func compileNarrow(lowers, uppers []uint8) func(*State, []uint32) []uint32 {
	switch {
	case len(lowers) == 0 && len(uppers) == 0:
		return nil
	case len(lowers) == 0 && len(uppers) == 1:
		p := uppers[0]
		return func(s *State, c []uint32) []uint32 {
			return vertexset.Below(c, s.bound[p])
		}
	case len(lowers) == 1 && len(uppers) == 0:
		p := lowers[0]
		return func(s *State, c []uint32) []uint32 {
			return vertexset.Above(c, s.bound[p])
		}
	default:
		return func(s *State, c []uint32) []uint32 {
			lo, hi := Bounds(s.bound, lowers, uppers)
			return vertexset.Window(c, lo, hi)
		}
	}
}

// compileWindow is compileNarrow for CandFull levels: it yields the vertex
// index range [start, end) instead of narrowing a slice.
func compileWindow(lowers, uppers []uint8) func(*State) (int, int) {
	if len(lowers) == 0 && len(uppers) == 0 {
		return func(s *State) (int, int) { return 0, s.nv }
	}
	return func(s *State) (int, int) {
		lo, hi := Bounds(s.bound, lowers, uppers)
		end := s.nv
		if uint64(hi) < uint64(end) {
			end = int(hi)
		}
		return int(lo), end
	}
}

// compileSteps compiles a level's hoisted intersections into one closure
// that reports whether the prefix survives: it stops at the first step whose
// (window-bounded) output is empty and returns false — the empty-set cut, see
// Step — so the caller skips the remaining steps, the deeper loops and the
// IEP evaluation. nil when the level has no steps (the common case — only
// multi-parent candidates need them). d is the hosting schedule level, used
// only for telemetry attribution.
func (k *Kernel) compileSteps(steps []Step, d int) func(*State) bool {
	if len(steps) == 0 {
		return nil
	}
	fns := make([]func(*State) []uint32, len(steps))
	for i := range steps {
		fns[i] = k.compileStep(&steps[i], d)
	}
	return func(s *State) bool {
		for _, fn := range fns {
			if len(fn(s)) == 0 {
				if lst := s.st.Level(d); lst != nil {
					lst.Cuts++
				}
				return false
			}
		}
		return true
	}
}

// compileStep compiles one intersection with its kernel choice frozen; the
// closure stores and returns the step's output. Every variant trims both
// operands to the step's window before reading them.
//
// Aux-marked steps get an aux-probing wrapper around the frozen base closure.
// The substitution is exact (see internal/auxgraph): for AuxCopy the pruned
// row N(v_d) ∩ N(v0) IS the unbounded output; for AuxRight the left buffer is
// contained in N(v0), so intersecting it with the pruned row equals
// intersecting with the full row. A declined row falls back to base, so the
// output is identical either way and kernel freezing and pruning compose.
func (k *Kernel) compileStep(st *Step, d int) func(*State) []uint32 {
	base := k.compileStepBase(st, d)
	out, dep := st.Out, st.Depth
	switch st.Aux {
	case AuxCopy:
		return func(s *State) []uint32 {
			row, ok := s.aux.Row(s.bound[dep])
			if !ok {
				return base(s)
			}
			s.recIntersect(d, telemetry.KernelAux)
			lo, hi := Bounds(s.bound, st.Lowers, st.Uppers)
			s.bufs[out] = append(s.bufs[out][:0], vertexset.Window(row, lo, hi)...)
			return s.bufs[out]
		}
	case AuxRight:
		lb := st.LeftBuf
		return func(s *State) []uint32 {
			row, ok := s.aux.Row(s.bound[dep])
			if !ok {
				return base(s)
			}
			s.recIntersect(d, telemetry.KernelAux)
			lo, hi := Bounds(s.bound, st.Lowers, st.Uppers)
			s.bufs[out], _ = vertexset.IntersectWindow(s.bufs[out], s.bufs[lb], row, nil, nil, lo, hi)
			return s.bufs[out]
		}
	default:
		return base
	}
}

// compileStepBase is the full-row path. A frozen merge or gallop runs that
// kernel on the trimmed operands; everything else goes through the bounded
// hybrid kernel, which still decides bitmap probe vs. merge vs. gallop per
// call — a frozen bitmap choice has to guard at run time anyway (the bound
// vertex may not be a hub), and dropping a probe trades O(|small|) walks for
// full merges.
func (k *Kernel) compileStepBase(st *Step, d int) func(*State) []uint32 {
	out := st.Out
	var forced func(dst, a, b []uint32) []uint32
	var family int
	switch st.Kernel {
	case KernelMerge:
		forced, family = vertexset.IntersectMerge, telemetry.KernelMerge
	case KernelGallop:
		forced, family = vertexset.IntersectGallop, telemetry.KernelGallop
	}
	if forced != nil {
		return func(s *State) []uint32 {
			l, r, lo, hi := s.operands(st)
			s.recIntersect(d, family)
			s.bufs[out] = forced(s.bufs[out], vertexset.Window(l, lo, hi), vertexset.Window(r, lo, hi))
			return s.bufs[out]
		}
	}
	return func(s *State) []uint32 {
		l, r, lo, hi := s.operands(st)
		var lbm vertexset.Bitmap
		if st.LeftBuf < 0 {
			lbm = s.g.HubBitmap(s.bound[st.LeftParent])
		}
		res, kern := vertexset.IntersectWindow(s.bufs[out], l, r, lbm, s.g.HubBitmap(s.bound[st.Depth]), lo, hi)
		s.recIntersect(d, int(kern))
		s.bufs[out] = res
		return res
	}
}

// operands fetches a step's two full inputs and evaluates its window.
func (s *State) operands(st *Step) (left, right []uint32, lo, hi uint32) {
	if st.LeftBuf >= 0 {
		left = s.bufs[st.LeftBuf]
	} else {
		left = s.g.Neighbors(s.bound[st.LeftParent])
	}
	lo, hi = Bounds(s.bound, st.Lowers, st.Uppers)
	return left, s.g.Neighbors(s.bound[st.Depth]), lo, hi
}

// recIntersect attributes one intersection to a level's stats (kernel is a
// telemetry kernel-family index, which vertexset.Kernel values are). A
// nil-safe single-branch no-op when telemetry is disabled.
func (s *State) recIntersect(d, kernel int) {
	if lst := s.st.Level(d); lst != nil {
		lst.Intersect(kernel)
	}
}

// compileIEP builds the suffix counter: fill the candidate sets of the
// innermost KIEP loops from the bound prefix and hand them, with the bound
// vertices' memberships (ExcludedIn), to the inclusion–exclusion calculator
// (paper Figure 6: |S_IEP|).
func (k *Kernel) compileIEP() func(*State) int64 {
	prog := k.prog
	srcs, cut := prog.IEP, prog.IEPCut
	return func(s *State) int64 {
		if lst := s.st.Level(cut); lst != nil {
			lst.IEPCounts++
		}
		for i, src := range srcs {
			if src.Parent >= 0 {
				p := s.bound[src.Parent]
				s.iepSets[i] = s.g.Neighbors(p)
				if s.iepBMs != nil {
					s.iepBMs[i] = s.g.HubBitmap(p)
				}
			} else {
				s.iepSets[i] = s.bufs[src.Buf]
				if s.iepBMs != nil {
					s.iepBMs[i] = nil
				}
			}
		}
		s.exIn = prog.ExcludedIn(s.exIn, s.bound, s.iepSets, s.iepBMs)
		return s.calc.CountIn(s.iepSets, s.iepBMs, s.exIn)
	}
}
