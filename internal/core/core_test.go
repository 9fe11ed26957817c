package core

import (
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

func mustConfig(t *testing.T, pat *pattern.Pattern, s schedule.Schedule, rs restrict.Set) *Config {
	t.Helper()
	cfg, err := NewConfig(pat, s, rs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
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
	sets, err := restrict.Generate(tri, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t, tri, identitySchedule(3), sets[0])
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
		if got := cfg.Count(c.g, RunOptions{Workers: 1}); got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.g.Name(), got, c.want)
		}
	}
}

func TestCountWithoutRestrictionsIsAutMultiple(t *testing.T) {
	g := graph.GNP(18, 0.4, 3)
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.House(),
	} {
		bare := mustConfig(t, p, identitySchedule(p.N()), nil)
		got := bare.Count(g, RunOptions{Workers: 1})
		want := baseline.BruteForceCount(g, p) * int64(len(p.Automorphisms()))
		if got != want {
			t.Errorf("%s unrestricted: %d, want %d", p, got, want)
		}
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
		sets, err := restrict.Generate(p, restrict.Options{MaxSets: 6})
		if err != nil {
			t.Fatal(err)
		}
		sres := schedule.Generate(p, schedule.Options{})
		for _, s := range sres.Efficient {
			for _, rs := range sets {
				cfg := mustConfig(t, p, s, rs)
				if got := cfg.Count(g, RunOptions{Workers: 1}); got != want {
					t.Errorf("%s sched %v set %v: %d, want %d", p, s, rs, got, want)
				}
			}
		}
	}
}

func TestCountEliminatedSchedulesStillCorrect(t *testing.T) {
	// Figure 9 runs schedules the generator eliminated; they are slower
	// but must be correct.
	g := graph.GNP(14, 0.5, 9)
	p := pattern.House()
	want := baseline.BruteForceCount(g, p)
	sets, err := restrict.Generate(p, restrict.Options{MaxSets: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := schedule.Generate(p, schedule.Options{KeepEliminated: true})
	for _, s := range res.Eliminated[:10] {
		cfg := mustConfig(t, p, s, sets[0])
		if got := cfg.Count(g, RunOptions{Workers: 1}); got != want {
			t.Errorf("eliminated schedule %v: %d, want %d", s, got, want)
		}
	}
}

func TestGraphZeroRestrictionSetCorrect(t *testing.T) {
	g := graph.GNP(16, 0.4, 11)
	for _, p := range []*pattern.Pattern{pattern.House(), pattern.Rectangle()} {
		want := baseline.BruteForceCount(g, p)
		gz := restrict.GraphZeroSet(p)
		sres := schedule.Generate(p, schedule.Options{})
		cfg := mustConfig(t, p, sres.Efficient[0], gz)
		if got := cfg.Count(g, RunOptions{Workers: 1}); got != want {
			t.Errorf("%s GraphZero set: %d, want %d", p, got, want)
		}
	}
}

func TestParallelCountMatchesSequential(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 17)
	p := pattern.House()
	sets, err := restrict.Generate(p, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sres := schedule.Generate(p, schedule.Options{})
	cfg := mustConfig(t, p, sres.Efficient[0], sets[0])
	want := cfg.Count(g, RunOptions{Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		for _, chunk := range []int{0, 1, 17} {
			if got := cfg.Count(g, RunOptions{Workers: workers, ChunkSize: chunk}); got != want {
				t.Errorf("workers=%d chunk=%d: %d, want %d", workers, chunk, got, want)
			}
		}
	}
}

func TestCountIEPMatchesCount(t *testing.T) {
	g := graph.GNP(20, 0.4, 23)
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.House(), pattern.Pentagon(),
		pattern.Cycle6Tri(), pattern.CompleteBipartite(2, 3), pattern.Prism(),
	}
	for _, p := range pats {
		sets, err := restrict.Generate(p, restrict.Options{MaxSets: 4})
		if err != nil {
			t.Fatal(err)
		}
		sres := schedule.Generate(p, schedule.Options{})
		for _, s := range sres.Efficient {
			for _, rs := range sets {
				cfg := mustConfig(t, p, s, rs)
				plain := cfg.Count(g, RunOptions{Workers: 1})
				viaIEP := cfg.CountIEP(g, RunOptions{Workers: 1})
				if plain != viaIEP {
					t.Errorf("%s sched %v set %v: IEP %d != plain %d (k=%d div=%d)",
						p, s, rs, viaIEP, plain, cfg.KIEP(), cfg.IEPDivisor())
				}
			}
		}
	}
}

func TestCountIEPParallel(t *testing.T) {
	g := graph.BarabasiAlbert(200, 4, 31)
	p := pattern.Cycle6Tri()
	sets, err := restrict.Generate(p, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sres := schedule.Generate(p, schedule.Options{})
	cfg := mustConfig(t, p, sres.Efficient[0], sets[0])
	want := cfg.CountIEP(g, RunOptions{Workers: 1})
	if got := cfg.CountIEP(g, RunOptions{Workers: 4}); got != want {
		t.Errorf("parallel IEP %d != sequential %d", got, want)
	}
	if plain := cfg.Count(g, RunOptions{Workers: 4}); plain != want {
		t.Errorf("IEP %d != plain %d", want, plain)
	}
}

func TestEnumerateVisitsValidEmbeddings(t *testing.T) {
	g := graph.GNP(15, 0.5, 41)
	p := pattern.House()
	sets, err := restrict.Generate(p, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sres := schedule.Generate(p, schedule.Options{})
	cfg := mustConfig(t, p, sres.Efficient[0], sets[0])
	want := cfg.Count(g, RunOptions{Workers: 1})
	var seen int64
	got := cfg.Enumerate(g, RunOptions{Workers: 1}, func(emb []uint32) bool {
		seen++
		// Every pattern edge must be present between the mapped vertices.
		for u := 0; u < p.N(); u++ {
			for v := u + 1; v < p.N(); v++ {
				if p.HasEdge(u, v) && !g.HasEdge(emb[u], emb[v]) {
					t.Fatalf("embedding %v misses edge {%d,%d}", emb, u, v)
				}
			}
		}
		// All distinct.
		for u := 0; u < p.N(); u++ {
			for v := u + 1; v < p.N(); v++ {
				if emb[u] == emb[v] {
					t.Fatalf("embedding %v repeats a vertex", emb)
				}
			}
		}
		return true
	})
	if seen != want || got != want {
		t.Errorf("Enumerate visited %d returned %d, want %d", seen, got, want)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := graph.Complete(12)
	p := pattern.Triangle()
	sets, _ := restrict.Generate(p, restrict.Options{})
	cfg := mustConfig(t, p, identitySchedule(3), sets[0])
	var visited int64
	cfg.Enumerate(g, RunOptions{Workers: 1}, func([]uint32) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Errorf("visited %d, want 5", visited)
	}
}

func TestEnumerateParallelCount(t *testing.T) {
	g := graph.GNP(40, 0.3, 5)
	p := pattern.Rectangle()
	sets, _ := restrict.Generate(p, restrict.Options{})
	sres := schedule.Generate(p, schedule.Options{})
	cfg := mustConfig(t, p, sres.Efficient[0], sets[0])
	want := cfg.Count(g, RunOptions{Workers: 1})
	var n int64
	got := cfg.Enumerate(g, RunOptions{Workers: 4}, func([]uint32) bool { return true })
	_ = n
	if got != want {
		t.Errorf("parallel Enumerate = %d, want %d", got, want)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	p := pattern.Triangle()
	sets, _ := restrict.Generate(p, restrict.Options{})
	cfg := mustConfig(t, p, identitySchedule(3), sets[0])
	empty, _ := graph.FromEdges(0, nil)
	if got := cfg.Count(empty, RunOptions{}); got != 0 {
		t.Errorf("empty graph count = %d", got)
	}
	two, _ := graph.FromEdges(2, [][2]uint32{{0, 1}})
	if got := cfg.Count(two, RunOptions{}); got != 0 {
		t.Errorf("2-vertex graph count = %d", got)
	}
}

func TestSingleVertexPattern(t *testing.T) {
	p := pattern.MustNew(1, nil, "v")
	cfg := mustConfig(t, p, identitySchedule(1), nil)
	g := graph.GNP(25, 0.2, 1)
	if got := cfg.Count(g, RunOptions{Workers: 1}); got != 25 {
		t.Errorf("single-vertex count = %d, want 25", got)
	}
	if got := cfg.CountIEP(g, RunOptions{Workers: 1}); got != 25 {
		t.Errorf("single-vertex IEP count = %d, want 25", got)
	}
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
		want := baseline.BruteForceCount(graph.GNP(12, 0.5, 3), p)
		got := res.Best.Count(graph.GNP(12, 0.5, 3), RunOptions{Workers: 1})
		if got != want {
			t.Errorf("%s planned config count = %d, want %d", p, got, want)
		}
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
	want := baseline.BruteForceCount(small, p)
	if got := res.Best.Count(small, RunOptions{Workers: 1}); got != want {
		t.Errorf("GraphZero baseline count = %d, want %d", got, want)
	}
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
		want := baseline.BruteForceCount(g, p)
		if res.Best.Count(g, RunOptions{Workers: 1}) != want {
			return false
		}
		if res.Best.CountIEP(g, RunOptions{Workers: 2}) != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConfigAccessors(t *testing.T) {
	p := pattern.House()
	sets, _ := restrict.Generate(p, restrict.Options{})
	sres := schedule.Generate(p, schedule.Options{})
	cfg := mustConfig(t, p, sres.Efficient[0], sets[0])
	if cfg.N() != 5 {
		t.Errorf("N = %d", cfg.N())
	}
	if cfg.KIEP() < 1 {
		t.Errorf("KIEP = %d", cfg.KIEP())
	}
	if cfg.IEPDivisor() < 1 {
		t.Errorf("IEPDivisor = %d", cfg.IEPDivisor())
	}
	if len(cfg.PosRestrictions()) != len(sets[0]) {
		t.Errorf("PosRestrictions count mismatch")
	}
	if cfg.String() == "" || cfg.PlanView().N != 5 {
		t.Error("accessors broken")
	}
}
