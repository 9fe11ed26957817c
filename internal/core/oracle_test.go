package core

import (
	"fmt"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// The engine's other tests compare arms that share one lowering with each
// other. This one meets an oracle that shares nothing with it — the
// all-injective-maps brute force — on graphs chosen to drive the empty-set
// cut and the window-bounded steps to their extremes: the tree and the
// complete bipartite graph are triangle-free, so every hoisted intersection
// of a triangle-bearing pattern comes back empty and every prefix is cut;
// the star-ring puts one hub row in every intersection; BA and G(n,m) are
// the ordinary cases.

// buildGraph returns the graph on n vertices holding base's edges, when
// base is not nil, and the ones edges adds.
func buildGraph(t *testing.T, n int, base *graph.Graph, edges func(add func(u, v int))) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, 4*n)
	if base != nil {
		for v := 0; v < base.NumVertices(); v++ {
			for _, w := range base.Neighbors(uint32(v)) {
				b.AddEdge(uint32(v), w)
			}
		}
	}
	edges(func(u, v int) { b.AddEdge(uint32(u), uint32(v)) })
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"tree": buildGraph(t, 90, nil, func(add func(u, v int)) {
			for v := 1; v < 90; v++ {
				add(v, (v*7+3)%v) // a fixed parent below v
			}
		}),
		"bipartite": buildGraph(t, 13, nil, func(add func(u, v int)) {
			for u := 0; u < 6; u++ {
				for v := 6; v < 13; v++ {
					add(u, v)
				}
			}
		}),
		"star-ring": starRingGraph(40),
		"ba":        graph.BarabasiAlbert(200, 3, 5),
		"gnm":       graph.GNM(26, 150, 9),
	}
	// The hub-bitmap probe is one of the bounded kernel's paths.
	gs["star-ring"].BuildHubBitmaps(1<<20, 4)
	gs["ba"].BuildHubBitmaps(1<<20, 8)
	return gs
}

func oraclePatterns(t *testing.T) []*pattern.Pattern {
	t.Helper()
	pats := []*pattern.Pattern{
		pattern.P1(), pattern.P2(), pattern.P3(), pattern.P4(),
		pattern.Rectangle(), pattern.Pentagon(),
	}
	// GraphPi's baseline_test.cpp patterns (SNIPPETS 1).
	pats = append(pats,
		snippetPattern(t, "ref-p1", "0111101011011010"),
		snippetPattern(t, "ref-p2", "011110101101110011110000101000011000"),
		snippetPattern(t, "ref-p3", "011111101111110110111000111000110000"),
		snippetPattern(t, "ref-p4", "011110101011110010100001111000010100"),
	)
	if !testing.Short() {
		pats = append(pats, pattern.P5(), pattern.P6(),
			snippetPattern(t, "ref-p5", "0111111101111111011001110110111100011010001100000"))
	}
	return pats
}

// TestCliquesAgainstBruteForce is the clique arm of the oracle (every pattern
// above is non-complete, so none reaches the clique kernel): K3..K6, K7
// without -short, on the five graphs above plus a dense G(n,m), whose
// candidate sets stay full to the last level, and a sparse graph with one
// planted K9, where almost every prefix ends at an empty AND. Interpreter and
// kernel, one worker and three, whole roots and split ones, telemetry on and
// off, all against the all-injective-maps count.
func TestCliquesAgainstBruteForce(t *testing.T) {
	graphs := oracleGraphs(t)
	graphs["dense"] = graph.GNM(20, 150, 3)
	graphs["planted"] = buildGraph(t, 60, graph.BarabasiAlbert(60, 3, 8), func(add func(u, v int)) {
		for i := 0; i < 9; i++ {
			for j := 0; j < i; j++ {
				add(5+6*i, 5+6*j)
			}
		}
	})
	graphs["planted"].BuildHubBitmaps(1<<20, 8)

	maxQ := 7
	if testing.Short() {
		maxQ = 6
	}
	arms := axes{tier: []Tier{TierInterpret, TierGenerated}, iep: on, workers: []int{1, 3},
		chunk: []int{2}, stats: both}.arms()
	for q := 3; q <= maxQ; q++ {
		p := pattern.Clique(q)
		cfg := planFor(t, graphs["ba"], p)
		if got := cfg.Bind(false, TierGenerated).Tier(); got != TierGenerated {
			t.Fatalf("K%d: planned configuration resolves to tier %s, want the clique kernel", q, got)
		}
		for gname, g := range graphs {
			checkArms(t, fmt.Sprintf("K%d on %s", q, gname), g, cfg, baseline.BruteForceCount(g, p), arms)
		}
	}
}

func TestEngineAgainstBruteForce(t *testing.T) {
	graphs := oracleGraphs(t)
	planOn := []string{"ba"}
	if !testing.Short() {
		planOn = append(planOn, "tree") // tri_cnt = 0 ranks schedules differently
	}
	arms := table(
		axes{tier: []Tier{TierInterpret, TierAuto}, iep: both, mirror: both, workers: []int{1, 3}},
		axes{entry: enumerated, mirror: both, workers: []int{1, 3}},
	)
	for _, p := range oraclePatterns(t) {
		var cfgs []*Config
		for _, name := range planOn {
			cfgs = append(cfgs, planFor(t, graphs[name], p))
		}
		for gname, g := range graphs {
			want := baseline.BruteForceCount(g, p)
			for ci, cfg := range cfgs {
				checkArms(t, fmt.Sprintf("%s on %s (plan %d)", p.Name(), gname, ci), g, cfg, want, arms)
			}
		}
	}
}

// TestEmptySetCutOnTriangleFreeGraph pins what the cut buys: on a tree the
// House's first hoisted intersection N(vA) ∩ N(vB) is empty for every edge,
// so every prefix is abandoned at the level that hosts the step — no deeper
// scan, no later intersection and no IEP evaluation ever runs.
func TestEmptySetCutOnTriangleFreeGraph(t *testing.T) {
	g := oracleGraphs(t)["tree"]
	cfg := planFor(t, g, pattern.House())
	st := checkArms(t, "house in a tree", g, cfg, 0, axes{iep: on, stats: on}.arms())[0].stats
	host := -1 // the shallowest level that hosts a step
	for d, l := range st.Levels {
		if l.Intersections > 0 {
			host = d
			break
		}
	}
	if host < 0 {
		t.Fatal("ran no intersection")
	}
	if l := st.Levels[host]; l.Cuts == 0 || l.Cuts != l.Intersections {
		t.Errorf("level %d: %d cuts for %d intersections, want one cut per (always empty) intersection",
			host, l.Cuts, l.Intersections)
	}
	for d := host + 1; d < len(st.Levels); d++ {
		if l := st.Levels[d]; l.Scans+l.Intersections+l.IEPCounts != 0 {
			t.Errorf("level %d below the cut still ran: %+v", d, l)
		}
	}
	if st.Levels[host].IEPCounts != 0 {
		t.Errorf("evaluated the IEP %d times on prefixes with an empty set", st.Levels[host].IEPCounts)
	}
}
