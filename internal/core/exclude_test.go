package core

import (
	"math/bits"
	"slices"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/schedule"
	"graphpi/internal/vertexset"
)

// TestExcludedInAgainstMembership is the oracle for codegen's exclusion
// classification. For IEP programs of P1–P6 (P1 is the House, P3 Cycle6Tri),
// reference p1–p5 and K7 — up to six efficient schedules each — it binds
// every injective prefix that maps the prefix's pattern edges to graph edges
// (a superset of the prefixes the executors reach: restrictions and windows
// only remove some) on three small graphs, materialises each IEP set straight
// from the neighbourhoods its schedule.Plan mask names, and requires
// Program.ExcludedIn to equal the direct membership of every bound vertex in
// every set — with hub bitmaps and without.
func TestExcludedInAgainstMembership(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":   graph.GNM(14, 45, 3),
		"ba":    graph.BarabasiAlbert(24, 3, 7),
		"dense": graph.GNM(9, 30, 11),
	}
	graphs["ba"].BuildHubBitmaps(1<<20, 4)
	programs := 0
	for _, named := range patterntest.Suite(3) {
		p := named.Pat
		rs := firstSet(t, p, 1)
		scheds := schedule.Generate(p, schedule.Options{}).Efficient
		if len(scheds) > 6 {
			scheds = scheds[:6]
		}
		for _, sched := range scheds {
			cfg := mustConfig(t, p, sched, rs)
			prog := cfg.Bind(true, TierAuto).prog
			if prog.IEPCut < 0 {
				continue
			}
			programs++
			for gname, g := range graphs {
				checkExclusions(t, named.Name+"/"+sched.String()+"/"+gname, cfg, g)
			}
		}
	}
	if programs < 20 {
		t.Fatalf("only %d IEP programs exercised", programs)
	}
}

func checkExclusions(t *testing.T, name string, cfg *Config, g *graph.Graph) {
	t.Helper()
	prog := cfg.Bind(true, TierAuto).prog
	cut := prog.IEPCut
	bound := make([]uint32, cfg.n)
	sets := make([][]uint32, prog.KIEP)
	bms := make([]vertexset.Bitmap, prog.KIEP)
	var got, want []uint16
	prefixes := 0
	var bind func(d int)
	bind = func(d int) {
		if d > cut {
			prefixes++
			for i, src := range prog.IEP {
				var mask uint16
				if src.Parent >= 0 {
					mask = 1 << src.Parent
				} else {
					mask = cfg.plan.BufParents[src.Buf]
				}
				sets[i] = nil
				for q := 0; q <= cut; q++ {
					if mask&(1<<q) == 0 {
						continue
					}
					if sets[i] == nil {
						sets[i] = g.Neighbors(bound[q])
					} else {
						sets[i] = vertexset.Intersect(nil, sets[i], g.Neighbors(bound[q]))
					}
				}
				bms[i] = nil
				if src.Parent >= 0 {
					bms[i] = g.HubBitmap(bound[src.Parent])
				}
			}
			want = want[:0]
			for q := 0; q <= cut; q++ {
				var in uint16
				for i, s := range sets {
					if slices.Contains(s, bound[q]) {
						in |= 1 << i
					}
				}
				if in != 0 {
					want = append(want, in)
				}
			}
			for _, hubs := range [][]vertexset.Bitmap{nil, bms} {
				got = prog.ExcludedIn(got, bound, sets, hubs)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: prefix %v: ExcludedIn = %v, membership = %v (classes %+v)",
						name, bound[:cut+1], got, want, prog.IEPExclude)
				}
			}
			return
		}
	next:
		for v := 0; v < g.NumVertices(); v++ {
			x := uint32(v)
			for q := 0; q < d; q++ {
				if bound[q] == x || (cfg.relabeled.HasEdge(d, q) && !g.HasEdge(x, bound[q])) {
					continue next
				}
			}
			bound[d] = x
			bind(d + 1)
		}
	}
	bind(0)
	if prefixes == 0 {
		t.Logf("%s: no prefix reaches the cut", name)
	}
}

// TestExclusionClassesOfHouse pins the classification the issue sized the
// change on: the House under its usual two-loop suffix has six (position,
// set) pairs, four of which need no membership test at all.
func TestExclusionClassesOfHouse(t *testing.T) {
	p := pattern.House()
	rs := firstSet(t, p, 1)
	for _, sched := range schedule.Generate(p, schedule.Options{}).Efficient {
		prog := mustConfig(t, p, sched, rs).Bind(true, TierAuto).prog
		if prog.KIEP != 2 {
			continue
		}
		var always, probe int
		for _, e := range prog.IEPExclude {
			always += bits.OnesCount16(e.Always)
			probe += bits.OnesCount16(e.Probe)
		}
		pairs := (prog.IEPCut + 1) * prog.KIEP
		if pairs != 6 || always+probe > 2 {
			t.Errorf("%v: %d pairs, %d always + %d probed (classes %+v)", sched, pairs, always, probe, prog.IEPExclude)
		}
	}
}
