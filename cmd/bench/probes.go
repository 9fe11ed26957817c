package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/costmodel"
	"graphpi/internal/graph"
	"graphpi/internal/iep"
	"graphpi/internal/perm"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// sampleEdges is how many edges of the workload's graph the kernel probes
// replay N(u) ∩ N(v) for.
const sampleEdges = 20000

// probeResult carries what later computed metrics need from the probes.
type probeResult struct {
	g *graph.Graph // the optimized internal view of the workload's graph
	// nsPerElem is the probed cost per element read, by kernel family
	// (telemetry.Kernel* index; the adaptive kernel stands in for aux), and
	// meanListRow the mean sampled row without a hub bitmap — the rows the
	// list kernels see. Both feed vertexset.est_share.
	nsPerElem   [telemetry.NumKernels]float64
	meanListRow float64
	configs     []*core.Config // the planned configuration of each query
}

// sink keeps probe results alive so the calls are not optimized away.
var sink int

// commonProbes measures the layers every workload has — graph, vertexset,
// iep, the planner modules, codegen, taskpool dispatch and the size of the
// code base — from outside, by timing calls into each module's exported
// functions on this workload's graph and patterns.
func (r *run) commonProbes(spec graphSpec, el edgeList, queries []query) (*probeResult, error) {
	res := &probeResult{}
	_, endAll := r.rec.begin("probes", 0, 0)
	defer endAll()

	// internal/graph
	t0 := time.Now()
	if r.graphFile == "" {
		sink += spec.generate().NumVertices()
	}
	gen := time.Since(t0)
	g, gt, err := el.internal()
	if err != nil {
		return nil, err
	}
	res.g = g
	r.put1("graph.generate_s", (gen + gt.build).Seconds())
	r.put1("graph.reorder_s", gt.reorder.Seconds())
	r.put1("graph.hub_build_s", gt.hubs.Seconds())
	t0 = time.Now()
	var snap bytes.Buffer
	if err := graph.WriteBinary(&snap, g); err != nil {
		return nil, err
	}
	back, err := graph.ReadBinary(&snap)
	if err != nil {
		return nil, err
	}
	r.put1("graph.snapshot_roundtrip_s", time.Since(t0).Seconds())
	r.check(back.NumEdges() == g.NumEdges() && back.NumHubs() == g.NumHubs(), "snapshot round trip changed the graph")
	r.put1("graph.csr_bytes", float64(8*(g.NumVertices()+1)+4*g.NumAdjSlots()))
	r.put1("graph.hub_bytes", float64(g.HubMemoryBytes()))

	r.kernelProbes(res)
	r.iepProbe(res)
	if err := r.plannerProbes(res, queries); err != nil {
		return nil, err
	}

	// internal/taskpool: cost of handing out one empty chunk.
	const chunks = 1 << 18
	t0 = time.Now()
	taskpool.Run(max(r.procs, 2), chunks, 1, func(int, taskpool.Range) {}) // one worker short-circuits the dispatcher
	r.put1("taskpool.dispatch_ns", float64(time.Since(t0).Nanoseconds())/chunks)

	return res, r.surfaceProbe()
}

// kernelProbes replays N(u) ∩ N(v) for a seeded sample of edges through each
// intersection kernel. ns_per_elem divides by the elements a kernel reads:
// both rows for the list kernels, the probing row for the bitmap kernel
// (which only runs on pairs with a hub endpoint).
func (r *run) kernelProbes(res *probeResult) {
	g := res.g
	if g.NumAdjSlots() == 0 {
		return
	}
	rng := rand.New(rand.NewPCG(r.seed, 0xbe7c4))
	type hubPair struct {
		small []uint32
		bm    vertexset.Bitmap
	}
	var (
		pairs               [][2][]uint32
		hubs                []hubPair
		elems, hubElems     float64
		listRows, listElems float64
		maxLen              int
	)
	for i := 0; i < sampleEdges; i++ {
		slot := rng.IntN(g.NumAdjSlots())
		u, v := g.SlotOwner(slot), g.AdjSlots(slot, slot+1)[0]
		a, b := g.Neighbors(u), g.Neighbors(v)
		pairs = append(pairs, [2][]uint32{a, b})
		elems += float64(len(a) + len(b))
		maxLen = max(maxLen, len(a))
		// Each endpoint's row is either a list-kernel row or, with a hub
		// bitmap, makes the pair a bitmap-kernel probe (once per pair).
		bmU, bmV := g.HubBitmap(u), g.HubBitmap(v)
		if bmU == nil {
			listRows, listElems = listRows+1, listElems+float64(len(a))
		}
		if bmV == nil {
			listRows, listElems = listRows+1, listElems+float64(len(b))
		}
		if bmU != nil {
			hubs = append(hubs, hubPair{b, bmU})
			hubElems += float64(len(b))
		} else if bmV != nil {
			hubs = append(hubs, hubPair{a, bmV})
			hubElems += float64(len(a))
		}
	}
	if listRows > 0 {
		res.meanListRow = listElems / listRows
	}
	dst := make([]uint32, 0, maxLen)
	timeList := func(name string, fn func(dst, a, b []uint32) []uint32) float64 {
		_, end := r.rec.begin(name, 0, 0)
		defer end()
		t0 := time.Now()
		for _, p := range pairs {
			sink += len(fn(dst, p[0], p[1]))
		}
		perElem := float64(time.Since(t0).Nanoseconds()) / elems
		r.put1("vertexset."+name+"_ns_per_elem", perElem)
		return perElem
	}
	res.nsPerElem[telemetry.KernelMerge] = timeList("merge", vertexset.IntersectMerge)
	res.nsPerElem[telemetry.KernelGallop] = timeList("gallop", vertexset.IntersectGallop)
	res.nsPerElem[telemetry.KernelAux] = timeList("intersect", vertexset.Intersect)
	timeList("size", func(_, a, b []uint32) []uint32 {
		sink += vertexset.IntersectSize(a, b)
		return nil
	})
	if len(hubs) > 0 {
		_, end := r.rec.begin("bitmap", 0, 0)
		defer end()
		t0 := time.Now()
		for _, h := range hubs {
			sink += len(vertexset.IntersectBitmap(dst, h.small, h.bm))
		}
		res.nsPerElem[telemetry.KernelBitmap] = float64(time.Since(t0).Nanoseconds()) / hubElems
		r.put1("vertexset.bitmap_ns_per_elem", res.nsPerElem[telemetry.KernelBitmap])
	}
}

// iepProbe times one inclusion-exclusion evaluation (k = 3) on neighbor sets
// sampled from the graph, with hub bitmaps where the graph has them, the way
// the engine's IEP tail calls it.
func (r *run) iepProbe(res *probeResult) {
	g := res.g
	if g.NumVertices() == 0 {
		return
	}
	const k, evals = 3, 20000
	rng := rand.New(rand.NewPCG(r.seed, 0x1e9))
	calc := iep.NewCalculator(k)
	sets := make([][]uint32, k)
	bms := make([]vertexset.Bitmap, k)
	excluded := make([]uint32, 2)
	_, end := r.rec.begin("iep", 0, 0)
	t0 := time.Now()
	for i := 0; i < evals; i++ {
		for j := range sets {
			v := uint32(rng.IntN(g.NumVertices()))
			sets[j], bms[j] = g.Neighbors(v), g.HubBitmap(v)
		}
		excluded[0], excluded[1] = uint32(rng.IntN(g.NumVertices())), uint32(rng.IntN(g.NumVertices()))
		sink += int(calc.CountHybrid(sets, bms, excluded))
	}
	r.put1("iep.count_ns", float64(time.Since(t0).Nanoseconds())/evals)
	end()
}

// plannerProbes times the planner's modules on the workload's pattern list
// against its graph's statistics: each module's exported entry point on its
// own, then core.Plan as a whole. plan_self_ms is what core.Plan spends
// outside the three generation/ranking calls.
func (r *run) plannerProbes(res *probeResult, queries []query) error {
	stats := res.g.Stats()
	params := costmodel.FromStats(stats)
	var restrictT, scheduleT, rankT, permT, planT, compileT time.Duration
	var nsets, nscheds int
	for _, q := range queries {
		pat, err := q.internal()
		if err != nil {
			return err
		}
		t0 := time.Now()
		sink += len(perm.Closure(pat.Automorphisms()))
		permT += time.Since(t0)

		t0 = time.Now()
		sets, err := restrict.Generate(pat, restrict.Options{})
		if err != nil {
			return err
		}
		restrictT += time.Since(t0)
		nsets += len(sets)

		t0 = time.Now()
		sres := schedule.Generate(pat, schedule.Options{})
		scheduleT += time.Since(t0)
		nscheds += len(sres.Efficient)

		plans := make([]schedule.Plan, len(sres.Efficient))
		mapped := make([][][][2]uint8, len(sres.Efficient))
		for si, s := range sres.Efficient {
			plans[si] = schedule.BuildPlan(schedule.RelabeledPattern(pat, s), pat.N())
			for _, rs := range sets {
				raw := make([][2]uint8, len(rs))
				for j, x := range rs {
					raw[j] = [2]uint8{x.First, x.Second}
				}
				mapped[si] = append(mapped[si], schedule.MapRestrictions(s, raw))
			}
		}
		t0 = time.Now()
		sink += len(costmodel.Rank(plans, pat.N(), mapped, params, costmodel.Model(0)))
		rankT += time.Since(t0)

		t0 = time.Now()
		planned, err := core.Plan(pat, stats, core.PlanOptions{})
		if err != nil {
			return err
		}
		planT += time.Since(t0)
		res.configs = append(res.configs, planned.Best)

		// internal/codegen: lower and compile the chosen configuration to
		// closures (a fresh Config, so nothing is memoized).
		t0 = time.Now()
		if _, err := planned.Best.CompileTier(res.g, true, core.TierCompiled); err != nil {
			return err
		}
		compileT += time.Since(t0)
	}
	r.put1("perm.closure_ms", ms(permT))
	r.put1("restrict.generate_ms", ms(restrictT))
	r.put1("restrict.sets", float64(nsets))
	r.put1("schedule.generate_ms", ms(scheduleT))
	r.put1("schedule.candidates", float64(nscheds))
	r.put1("costmodel.rank_ms", ms(rankT))
	r.put1("core.plan_ms", ms(planT))
	r.put1("core.plan_self_ms", ms(planT-restrictT-scheduleT-rankT))
	r.put1("codegen.compile_ms", ms(compileT))
	return nil
}

// surfaceProbe counts the size of the system with go/parser, from the
// checkout the benchmark runs in: non-test Go lines outside cmd/bench, the
// root package's exported symbols, and cmd/graphpi's flags.
func (r *run) surfaceProbe() error {
	fset := token.NewFileSet()
	var loc int
	err := filepath.WalkDir(r.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != r.root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(r.root, "cmd", "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		loc += bytes.Count(data, []byte{'\n'})
		return nil
	})
	if err != nil {
		return err
	}
	r.put1("surface.loc_nontest", float64(loc))

	root, err := parser.ParseFile(fset, filepath.Join(r.root, "graphpi.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	exported := 0
	for _, decl := range root.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				exported++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported++
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported++
						}
					}
				}
			}
		}
	}
	r.put1("surface.exported_symbols", float64(exported))

	cli, err := parser.ParseFile(fset, filepath.Join(r.root, "cmd", "graphpi", "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	flags := 0
	ast.Inspect(cli, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && sel.Sel.Name != "Parse" && len(call.Args) >= 3 {
				flags++
			}
		}
		return true
	})
	r.put1("surface.cli_flags", float64(flags))
	return nil
}
