package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

// The engine's other tests compare arms that share one lowering with each
// other. This one meets an oracle that shares nothing with it — the
// all-injective-maps brute force — on graphs chosen to drive the empty-set
// cut and the window-bounded steps to their extremes: the tree and the
// complete bipartite graph are triangle-free, so every hoisted intersection
// of a triangle-bearing pattern comes back empty and every prefix is cut;
// the star-ring puts one hub row in every intersection; BA and G(n,m) are
// the ordinary cases.

func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	build := func(n int, edges func(add func(u, v int))) *graph.Graph {
		b := graph.NewBuilder(n, 4*n)
		edges(func(u, v int) { b.AddEdge(uint32(u), uint32(v)) })
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gs := map[string]*graph.Graph{
		"tree": build(90, func(add func(u, v int)) {
			for v := 1; v < 90; v++ {
				add(v, (v*7+3)%v) // a fixed parent below v
			}
		}),
		"bipartite": build(13, func(add func(u, v int)) {
			for u := 0; u < 6; u++ {
				for v := 6; v < 13; v++ {
					add(u, v)
				}
			}
		}),
		"star-ring": build(40, func(add func(u, v int)) {
			for v := 0; v+1 < 39; v++ {
				add(v, v+1)
			}
			for v := 0; v < 39; v++ {
				add(39, v)
			}
		}),
		"ba":  graph.BarabasiAlbert(200, 3, 5),
		"gnm": graph.GNM(26, 150, 9),
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
	refs := []struct{ name, adj string }{
		{"ref-p1", "0111101011011010"},
		{"ref-p2", "011110101101110011110000101000011000"},
		{"ref-p3", "011111101111110110111000111000110000"},
		{"ref-p4", "011110101011110010100001111000010100"},
	}
	if !testing.Short() {
		pats = append(pats, pattern.P5(), pattern.P6())
		refs = append(refs, struct{ name, adj string }{"ref-p5", "0111111101111111011001110110111100011010001100000"})
	}
	for _, r := range refs {
		n := 4
		for n*n < len(r.adj) {
			n++
		}
		p, err := pattern.ParseAdjacency(n, r.adj, r.name)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
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
	planted := graph.NewBuilder(60, 300)
	sparse := graph.BarabasiAlbert(60, 3, 8)
	for v := 0; v < 60; v++ {
		for _, w := range sparse.Neighbors(uint32(v)) {
			planted.AddEdge(uint32(v), w)
		}
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < i; j++ {
			planted.AddEdge(uint32(5+6*i), uint32(5+6*j))
		}
	}
	var err error
	if graphs["planted"], err = planted.Build(); err != nil {
		t.Fatal(err)
	}
	graphs["planted"].BuildHubBitmaps(1<<20, 8)

	maxQ := 7
	if testing.Short() {
		maxQ = 6
	}
	for q := 3; q <= maxQ; q++ {
		p := pattern.Clique(q)
		res, err := core.Plan(p, graphs["ba"].Stats(), core.PlanOptions{})
		if err != nil {
			t.Fatalf("plan K%d: %v", q, err)
		}
		cfg := res.Best
		for gname, g := range graphs {
			if got := cfg.Bind(false, core.TierGenerated).Tier(); got != core.TierGenerated {
				t.Fatalf("K%d on %s: planned configuration resolves to tier %s, want the clique kernel", q, gname, got)
			}
			want := baseline.BruteForceCount(g, p)
			for _, tier := range []core.Tier{core.TierInterpret, core.TierGenerated} {
				for _, workers := range []int{1, 3} {
					for _, ep := range []core.EdgeParallelMode{core.EdgeParallelOff, core.EdgeParallelOn} {
						for _, stats := range []bool{false, true} {
							opt := core.RunOptions{Workers: workers, EdgeParallel: ep, ChunkSize: 2}
							if stats {
								opt.Stats = telemetry.NewRunStats(q)
							}
							if got := cfg.Bind(true, tier).Count(g, opt); got != want {
								t.Errorf("K%d on %s: CountIEP tier=%s workers=%d edgePar=%d stats=%v = %d, brute force %d",
									q, gname, tier, workers, ep, stats, got, want)
							}
							if tier == core.TierGenerated && stats && opt.Stats.Levels[q-1].Candidates != uint64(want) {
								t.Errorf("K%d on %s: the kernel's leaf level scanned %d candidates, count is %d",
									q, gname, opt.Stats.Levels[q-1].Candidates, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestEngineAgainstBruteForce(t *testing.T) {
	graphs := oracleGraphs(t)
	planOn := []string{"ba"}
	if !testing.Short() {
		planOn = append(planOn, "tree") // tri_cnt = 0 ranks schedules differently
	}
	for _, p := range oraclePatterns(t) {
		var cfgs []*core.Config
		for _, name := range planOn {
			res, err := core.Plan(p, graphs[name].Stats(), core.PlanOptions{})
			if err != nil {
				t.Fatalf("plan %s on %s: %v", p.Name(), name, err)
			}
			cfgs = append(cfgs, res.Best)
		}
		for gname, g := range graphs {
			want := baseline.BruteForceCount(g, p)
			for ci, cfg := range cfgs {
				checkAgainstOracle(t, fmt.Sprintf("%s on %s (plan %d)", p.Name(), gname, ci), cfg, g, p, want)
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
	res, err := core.Plan(pattern.House(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Best
	st := telemetry.NewRunStats(cfg.N())
	if got := cfg.Bind(true, core.TierAuto).Count(g, core.RunOptions{Workers: 1, Stats: st}); got != 0 {
		t.Fatalf("counted %d houses in a tree", got)
	}
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

func checkAgainstOracle(t *testing.T, name string, cfg *core.Config, g *graph.Graph, p *pattern.Pattern, want int64) {
	t.Helper()
	edges := p.Edges()
	for _, workers := range []int{1, 3} {
		for _, tier := range []core.Tier{core.TierInterpret, core.TierAuto} {
			opt := core.RunOptions{Workers: workers}
			if got := cfg.Bind(false, tier).Count(g, opt); got != want {
				t.Errorf("%s: Count tier=%s workers=%d = %d, brute force %d", name, tier, workers, got, want)
			}
			if got := cfg.Bind(true, tier).Count(g, opt); got != want {
				t.Errorf("%s: CountIEP tier=%s workers=%d = %d, brute force %d", name, tier, workers, got, want)
			}
		}
		var bad atomic.Int64
		got := cfg.EnumerateAll(g, core.RunOptions{Workers: workers}, func(emb []uint32) bool {
			for _, e := range edges {
				if !g.HasEdge(emb[e[0]], emb[e[1]]) {
					bad.Add(1)
				}
			}
			for i := range emb {
				for j := 0; j < i; j++ {
					if emb[i] == emb[j] {
						bad.Add(1)
					}
				}
			}
			return true
		})
		if got != want || bad.Load() != 0 {
			t.Errorf("%s: Enumerate workers=%d visited %d (%d broken edges or repeated vertices), brute force %d",
				name, workers, got, bad.Load(), want)
		}
	}
}
