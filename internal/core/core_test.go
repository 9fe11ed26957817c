package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// identitySchedule returns the natural order schedule for an n-pattern.
func identitySchedule(n int) schedule.Schedule {
	o := make([]uint8, n)
	for i := range o {
		o[i] = uint8(i)
	}
	return schedule.Schedule{Order: o}
}

func mustConfig(t testing.TB, pat *pattern.Pattern, s schedule.Schedule, rs restrict.Set) *Config {
	t.Helper()
	cfg, err := NewConfig(pat, s, rs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// firstSet returns the first of p's restriction sets that Generate returns
// when capped at maxSets (0: its default cap). Generate sorts only the sets
// it found, so the cap can change which set comes first.
func firstSet(t testing.TB, p *pattern.Pattern, maxSets int) restrict.Set {
	t.Helper()
	sets, err := restrict.Generate(p, restrict.Options{MaxSets: maxSets})
	if err != nil {
		t.Fatal(err)
	}
	return sets[0]
}

// firstConfig builds p under its first efficient schedule and firstSet.
func firstConfig(t testing.TB, p *pattern.Pattern, maxSets int) *Config {
	t.Helper()
	return mustConfig(t, p, schedule.Generate(p, schedule.Options{}).Efficient[0], firstSet(t, p, maxSets))
}

// everyConfig builds p under every efficient schedule and each of its first
// maxSets generated restriction sets.
func everyConfig(t *testing.T, p *pattern.Pattern, maxSets int) []*Config {
	t.Helper()
	sets, err := restrict.Generate(p, restrict.Options{MaxSets: maxSets})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []*Config
	for _, s := range schedule.Generate(p, schedule.Options{}).Efficient {
		for _, rs := range sets {
			cfgs = append(cfgs, mustConfig(t, p, s, rs))
		}
	}
	return cfgs
}

func TestNewConfigValidation(t *testing.T) {
	h := pattern.House()
	if _, err := NewConfig(h, schedule.Schedule{Order: []uint8{0, 1}}, nil); err == nil {
		t.Error("short schedule accepted")
	}
	if _, err := NewConfig(h, schedule.Schedule{Order: []uint8{0, 0, 1, 2, 3}}, nil); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := NewConfig(h, identitySchedule(5), restrict.Set{{First: 9, Second: 1}}); err == nil {
		t.Error("out-of-range restriction accepted")
	}
	if _, err := NewConfig(h, identitySchedule(5), restrict.Set{{First: 1, Second: 1}}); err == nil {
		t.Error("self-restriction accepted")
	}
}

func TestCountTrianglesOnKnownGraphs(t *testing.T) {
	tri := pattern.Triangle()
	cfg := mustConfig(t, tri, identitySchedule(3), firstSet(t, tri, 0))
	cases := []struct {
		g    *graph.Graph
		want int64
	}{
		{graph.Complete(5), 10},
		{graph.Complete(10), 120},
		{graph.Cycle(6), 0},
		{graph.Star(10), 0},
	}
	for _, c := range cases {
		checkArms(t, c.g.Name(), c.g, cfg, c.want, table(axes{}))
	}
}

func TestCountWithoutRestrictionsIsAutMultiple(t *testing.T) {
	g := graph.GNP(18, 0.4, 3)
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.House(),
	} {
		want := baseline.BruteForceCount(g, p) * int64(len(p.Automorphisms()))
		checkArms(t, p.String()+" unrestricted", g, mustConfig(t, p, identitySchedule(p.N()), nil), want, table(axes{}))
	}
}

func TestCountMatchesBruteForceAcrossConfigs(t *testing.T) {
	// Every (efficient schedule × restriction set) configuration must
	// produce the exact embedding count.
	g := graph.GNP(16, 0.45, 7)
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.House(),
		pattern.Pentagon(), pattern.CompleteBipartite(2, 3),
	}
	for _, p := range pats {
		want := baseline.BruteForceCount(g, p)
		for _, cfg := range everyConfig(t, p, 6) {
			checkArms(t, fmt.Sprintf("%s sched %v set %v", p, cfg.Schedule, cfg.Restrictions), g, cfg, want, table(axes{}))
		}
	}
}

func TestCountEliminatedSchedulesStillCorrect(t *testing.T) {
	// Figure 9 runs schedules the generator eliminated; they are slower
	// but must be correct.
	g := graph.GNP(14, 0.5, 9)
	p := pattern.House()
	want := baseline.BruteForceCount(g, p)
	rs := firstSet(t, p, 2)
	res := schedule.Generate(p, schedule.Options{KeepEliminated: true})
	for _, s := range res.Eliminated[:10] {
		checkArms(t, fmt.Sprintf("eliminated schedule %v", s), g, mustConfig(t, p, s, rs), want, table(axes{}))
	}
}

func TestGraphZeroRestrictionSetCorrect(t *testing.T) {
	g := graph.GNP(16, 0.4, 11)
	for _, p := range []*pattern.Pattern{pattern.House(), pattern.Rectangle()} {
		cfg := mustConfig(t, p, schedule.Generate(p, schedule.Options{}).Efficient[0], restrict.GraphZeroSet(p))
		checkArms(t, p.String()+" GraphZero set", g, cfg, baseline.BruteForceCount(g, p), table(axes{}))
	}
}

// TestPlanAboveOrderTable plans 9-vertex patterns, which have no order table
// and so take GraphZero's set, and checks each planned count against the
// GraphZero identity: the count of the same schedule without restrictions,
// divided by |Aut|, on small random graphs dense enough to hold the pattern.
func TestPlanAboveOrderTable(t *testing.T) {
	stats := graph.BarabasiAlbert(3000, 4, 1).Stats()
	k10 := buildGraph(t, 40, graph.GNM(40, 80, 3), func(add func(u, v int)) {
		for i := range 10 {
			for j := range i {
				add(3*i, 3*j)
			}
		}
	})
	k56 := buildGraph(t, 30, graph.GNM(30, 60, 4), func(add func(u, v int)) {
		for i := range 5 {
			for j := range 6 {
				add(2*i, 2*j+1)
			}
		}
	})
	for _, tc := range []struct {
		p *pattern.Pattern
		g *graph.Graph
	}{
		{pattern.CycleN(9), graph.GNM(22, 60, 5)},
		{pattern.CompleteBipartite(4, 5), k56},
		{pattern.Clique(9), k10},
	} {
		res, err := Plan(tc.p, stats, PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.p, err)
		}
		cfg := res.Best
		if gz := restrict.GraphZeroSet(tc.p); res.NumRestrictionSets != 1 || len(cfg.Restrictions) != len(gz) {
			t.Errorf("%s: planned %d sets, best %v; want GraphZero's %v alone", tc.p, res.NumRestrictionSets, cfg.Restrictions, gz)
		}
		t.Logf("%s: planned in %v", tc.p, res.PrepTime)
		free := reference(mustConfig(t, tc.p, cfg.Schedule, nil), tc.g)
		want := free / int64(len(tc.p.Automorphisms()))
		if want == 0 || free%int64(len(tc.p.Automorphisms())) != 0 {
			t.Fatalf("%s: %d unrestricted embeddings, |Aut| %d", tc.p, free, len(tc.p.Automorphisms()))
		}
		checkArms(t, tc.p.String(), tc.g, cfg, want, axes{iep: both, workers: []int{1, 3}}.arms())
	}
}

func TestParallelCountMatchesSequential(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 17)
	cfg := firstConfig(t, pattern.House(), 0)
	checkArms(t, "house", g, cfg, reference(cfg, g), axes{workers: []int{2, 4, 8}, chunk: []int{0, 1, 17}}.arms())
}

func TestCountIEPMatchesCount(t *testing.T) {
	g := graph.GNP(20, 0.4, 23)
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.House(), pattern.Pentagon(),
		pattern.Cycle6Tri(), pattern.CompleteBipartite(2, 3), pattern.Prism(),
	}
	for _, p := range pats {
		for _, cfg := range everyConfig(t, p, 4) {
			name := fmt.Sprintf("%s sched %v set %v (k=%d div=%d)", p, cfg.Schedule, cfg.Restrictions, cfg.KIEP(), cfg.IEPDivisor())
			checkArms(t, name, g, cfg, reference(cfg, g), axes{iep: on}.arms())
		}
	}
}

func TestCountIEPParallel(t *testing.T) {
	g := graph.BarabasiAlbert(200, 4, 31)
	cfg := firstConfig(t, pattern.Cycle6Tri(), 0)
	want := cfg.Bind(true, TierAuto).Count(g, RunOptions{Workers: 1})
	checkArms(t, "cycle6tri", g, cfg, want, axes{iep: both, workers: []int{4}}.arms())
}

func TestEnumerateVisitsValidEmbeddings(t *testing.T) {
	g := graph.GNP(15, 0.5, 41)
	cfg := firstConfig(t, pattern.House(), 0)
	checkArms(t, "house", g, cfg, reference(cfg, g), axes{entry: enumerated}.arms())
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := graph.Complete(12)
	p := pattern.Triangle()
	cfg := mustConfig(t, p, identitySchedule(3), firstSet(t, p, 0))
	var visited int64
	cfg.EnumerateAll(g, RunOptions{Workers: 1}, func([]uint32) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Errorf("visited %d, want 5", visited)
	}
}

func TestEnumerateParallelCount(t *testing.T) {
	g := graph.GNP(40, 0.3, 5)
	cfg := firstConfig(t, pattern.Rectangle(), 0)
	checkArms(t, "rectangle", g, cfg, reference(cfg, g), axes{entry: enumerated, workers: []int{4}}.arms())
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	p := pattern.Triangle()
	cfg := mustConfig(t, p, identitySchedule(3), firstSet(t, p, 0))
	empty, _ := graph.FromEdges(0, nil)
	two, _ := graph.FromEdges(2, [][2]uint32{{0, 1}})
	for _, g := range []*graph.Graph{empty, two} {
		checkArms(t, fmt.Sprintf("%d-vertex graph", g.NumVertices()), g, cfg, 0, axes{workers: []int{0}}.arms())
	}
}

func TestSingleVertexPattern(t *testing.T) {
	p := pattern.MustNew(1, nil, "v")
	cfg := mustConfig(t, p, identitySchedule(1), nil)
	checkArms(t, "single vertex", graph.GNP(25, 0.2, 1), cfg, 25, axes{iep: both}.arms())
}

func TestPlanSelectsWorkingConfig(t *testing.T) {
	g := graph.BarabasiAlbert(150, 4, 2)
	stats := g.Stats()
	for _, p := range pattern.EvaluationPatterns()[:4] {
		res, err := Plan(p, stats, PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Best == nil || res.PrepTime <= 0 {
			t.Fatalf("%s: incomplete result", p)
		}
		small := graph.GNP(12, 0.5, 3)
		checkArms(t, p.String()+" planned", small, res.Best, baseline.BruteForceCount(small, p), table(axes{}))
	}
}

func TestPlanKeepAllRanksConsistently(t *testing.T) {
	g := graph.BarabasiAlbert(100, 4, 8)
	p := pattern.House()
	res, err := Plan(p, g.Stats(), PlanOptions{KeepAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != res.NumSchedules*res.NumRestrictionSets {
		t.Errorf("ranked %d, want %d", len(res.Ranked), res.NumSchedules*res.NumRestrictionSets)
	}
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Cost < res.Ranked[i-1].Cost {
			t.Fatal("ranked configs out of order")
		}
	}
	// The planner may trade up to iepCostSlack of predicted cost for an
	// IEP-capable configuration; Best is otherwise the top-ranked one.
	if res.Best.Cost > res.Ranked[0].Cost*4 {
		t.Errorf("best cost %g too far above top ranked %g", res.Best.Cost, res.Ranked[0].Cost)
	}
}

func TestPlanGraphZeroBaseline(t *testing.T) {
	g := graph.BarabasiAlbert(100, 4, 4)
	p := pattern.House()
	res, err := PlanGraphZero(p, g.Stats())
	if err != nil {
		t.Fatal(err)
	}
	small := graph.GNP(14, 0.5, 6)
	checkArms(t, "GraphZero baseline", small, res.Best, baseline.BruteForceCount(small, p), table(axes{}))
	if res.NumRestrictionSets != 1 {
		t.Errorf("GraphZero should use exactly 1 set, got %d", res.NumRestrictionSets)
	}
}

func TestPlanRejectsDisconnected(t *testing.T) {
	p := pattern.MustNew(4, [][2]int{{0, 1}, {2, 3}}, "disc")
	if _, err := Plan(p, graph.Stats{Vertices: 10, Edges: 20, Triangles: 5}, PlanOptions{}); err == nil {
		t.Error("disconnected pattern accepted")
	}
}

func TestRandomGraphsPatternsProperty(t *testing.T) {
	// The pillar property test: on random graphs and random connected
	// patterns, the planned configuration's Count, CountIEP and the brute
	// force oracle all agree.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1001))
		n := 3 + r.IntN(3)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.6 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		p := pattern.MustNew(n, edges, "rand")
		if !p.Connected() {
			return true
		}
		g := graph.GNP(12+r.IntN(6), 0.35+0.2*r.Float64(), seed)
		res, err := Plan(p, g.Stats(), PlanOptions{MaxRestrictionSets: 4})
		if err != nil {
			return false
		}
		checkArms(t, fmt.Sprintf("seed %d %s", seed, p), g, res.Best, baseline.BruteForceCount(g, p), table(
			axes{},
			axes{iep: on, workers: []int{2}},
		))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := firstConfig(t, pattern.House(), 0)
	if cfg.N() != 5 {
		t.Errorf("N = %d", cfg.N())
	}
	if cfg.KIEP() < 1 {
		t.Errorf("KIEP = %d", cfg.KIEP())
	}
	if cfg.IEPDivisor() < 1 {
		t.Errorf("IEPDivisor = %d", cfg.IEPDivisor())
	}
	if len(cfg.PosRestrictions()) != len(cfg.Restrictions) {
		t.Errorf("PosRestrictions count mismatch")
	}
	if cfg.String() == "" || cfg.PlanView().N != 5 {
		t.Error("accessors broken")
	}
}
