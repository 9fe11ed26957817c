package core

import (
	"fmt"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/schedule"
)

// hybridPair is a fixture graph and its hybrid view: degree-ordered with hub
// bitmaps built.
type hybridPair struct {
	name      string
	orig, hyb *graph.Graph
}

// hybridTestGraphs returns the (original, hybrid) pairs.
func hybridTestGraphs(t *testing.T) []hybridPair {
	t.Helper()
	ba := graph.BarabasiAlbert(400, 4, 5)
	gnm := graph.GNM(300, 1200, 9)
	star := graph.Star(200) // extreme skew: one hub owns every edge
	out := []hybridPair{
		{"ba", ba, ba.Reorder()},
		{"gnm", gnm, gnm.Reorder()},
		{"star", star, star.Reorder()},
	}
	for _, g := range out {
		if k := g.hyb.BuildHubBitmaps(1<<22, 0); k == 0 && g.name != "gnm" {
			// The skewed fixtures must actually exercise the bitmap path.
			if g.hyb.MaxDegree() >= 64 {
				t.Fatalf("%s: no hubs built despite max degree %d", g.name, g.hyb.MaxDegree())
			}
		}
	}
	return out
}

// planFor compiles the planner-selected configuration for a pattern.
func planFor(t testing.TB, g *graph.Graph, pat *pattern.Pattern) *Config {
	t.Helper()
	res, err := Plan(pat, g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatalf("plan %s: %v", pat, err)
	}
	return res.Best
}

// TestHybridGraphEquivalence is the correctness invariant of the hybrid
// adjacency engine: for every named pattern, Count and CountIEP return the
// seed count on the degree-ordered + bitmap-backed graph and on the original
// graph, at 1 and N workers.
func TestHybridGraphEquivalence(t *testing.T) {
	pats := append(pattern.EvaluationPatterns(),
		pattern.Triangle(), pattern.Rectangle(), pattern.Clique(4))
	arms := axes{iep: both, workers: []int{1, 4}}.arms()
	for _, gs := range hybridTestGraphs(t) {
		for _, pat := range pats {
			if pat.N() >= 6 && gs.name != "star" {
				continue // keep the suite fast; P3/P5/P6 run on the star
			}
			cfg := planFor(t, gs.orig, pat)
			want := reference(cfg, gs.orig)
			checkArms(t, gs.name+"/"+pat.Name()+" original", gs.orig, cfg, want, arms)
			checkArms(t, gs.name+"/"+pat.Name()+" hybrid", gs.hyb, cfg, want, arms)
		}
	}
}

// TestHybridEnumerateReportsOriginalIDs checks that enumeration on the
// reordered graph yields exactly the same subgraphs, in original vertex ids,
// as enumeration on the original graph. Restrictions orient each embedding
// by data-vertex id order, which differs between the two id spaces, so the
// arms' checksum is keyed by the subgraph found, not by the embedding.
func TestHybridEnumerateReportsOriginalIDs(t *testing.T) {
	arms := axes{entry: enumerated, workers: []int{1, 4}}.arms()
	for _, gs := range hybridTestGraphs(t) {
		for _, pat := range []*pattern.Pattern{pattern.Triangle(), pattern.House()} {
			cfg := planFor(t, gs.orig, pat)
			name := gs.name + "/" + pat.Name()
			want := checkArms(t, name+" original", gs.orig, cfg, reference(cfg, gs.orig), arms[:1])[0]
			for i, r := range checkArms(t, name+" hybrid", gs.hyb, cfg, want.count, arms) {
				if r.sum != want.sum {
					t.Errorf("%s [%s]: enumerated other subgraphs than on the original graph", name, arms[i])
				}
			}
		}
	}
}

// TestDupCheckSkipsNothingRequired cross-checks the dupCheck optimization:
// a manual configuration with an incomplete restriction set (where the
// duplicate scan IS load-bearing) must still be exact.
func TestDupCheckSkipsNothingRequired(t *testing.T) {
	g := graph.GNM(60, 240, 4)
	// Path pattern P4: schedule 0-1-2-3, no restrictions. Depths 2,3 can
	// collide with non-adjacent earlier binds; dupCheck must catch those.
	pat := pattern.PathN(4)
	cfg := mustConfig(t, pat, identitySchedule(4), nil)
	want := baseline.BruteForceCount(g, pat) * int64(len(pat.Automorphisms()))
	checkArms(t, "unrestricted path", g, cfg, want, table(axes{}))
	rg := g.Reorder()
	rg.BuildHubBitmaps(1<<22, 0)
	checkArms(t, "hybrid unrestricted path", rg, cfg, want, axes{workers: []int{3}}.arms())
}

// vertexTaskBinding is a binding that cannot flatten its first two loops
// and so takes outermost-loop vertex ranges.
type vertexTaskBinding struct {
	name string
	cfg  *Config
	iep  bool
}

// vertexTaskBindings returns every kind of binding that cannot flatten: an
// IEP cut right after depth 0 (a path and a star), an eliminated schedule
// whose depth-1 loop is not N(v0), and the one-vertex pattern.
func vertexTaskBindings(t *testing.T, g *graph.Graph) []vertexTaskBinding {
	t.Helper()
	out := []vertexTaskBinding{
		{"P3 iep", planFor(t, g, pattern.PathN(3)), true},
		{"star4 iep", planFor(t, g, pattern.StarN(4)), true},
		{"one vertex", mustConfig(t, pattern.MustNew(1, nil, "v"), identitySchedule(1), nil), false},
	}
	p := pattern.PathN(4)
	rs := firstSet(t, p, 0)
	for _, s := range schedule.Generate(p, schedule.Options{KeepEliminated: true}).Eliminated {
		cfg := mustConfig(t, p, s, rs)
		if cfg.plan.Cand[1].Kind == schedule.CandFull {
			return append(out, vertexTaskBinding{fmt.Sprintf("P4 schedule %v", s.Order), cfg, false})
		}
	}
	t.Fatal("no eliminated P4 schedule has a depth-1 loop over all vertices")
	return nil
}

// TestEdgeParallelEligibility pins which bindings take slot tasks: every
// clique binding, and every other binding whose depth-1 loop is N(v0) and
// not consumed by the IEP suffix.
func TestEdgeParallelEligibility(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 8)
	tri := planFor(t, g, pattern.Triangle())
	if !tri.Bind(false, TierAuto).slotTasks() {
		t.Error("triangle enumeration should take slot tasks")
	}
	for q := 3; q <= 6; q++ {
		for _, iep := range both {
			if b := planFor(t, g, pattern.Clique(q)).Bind(iep, TierAuto); !b.clique || !b.slotTasks() {
				t.Errorf("K%d iep=%v: clique kernel %v, slot tasks %v; want both", q, iep, b.clique, b.slotTasks())
			}
		}
	}
	for _, vb := range vertexTaskBindings(t, g) {
		if vb.cfg.Bind(vb.iep, TierAuto).slotTasks() {
			t.Errorf("%s: takes slot tasks, want vertex ranges", vb.name)
		}
	}
}

// TestVertexTaskBindings runs the bindings that take vertex ranges — the only
// users of the interpreter's whole-root loop — through Bound.Run and through
// Counters, at 1 and 3 workers and several cuts, against brute force.
func TestVertexTaskBindings(t *testing.T) {
	g := graph.GNM(50, 140, 6)
	arms := axes{entry: []entry{viaRun, viaCounter}, workers: []int{1, 3}, chunk: []int{0, 1, 17}}
	for _, vb := range vertexTaskBindings(t, g) {
		arms.iep = []bool{vb.iep}
		checkArms(t, vb.name, g, vb.cfg, baseline.BruteForceCount(g, vb.cfg.Pattern), arms.arms())
	}
}
