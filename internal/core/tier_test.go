package core

import (
	"math/rand/v2"
	"testing"

	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/perm"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
	"graphpi/internal/telemetry"
)

// chainSet builds the total-order restriction chain id(v1)>id(v0),
// id(v2)>id(v1), ... — a valid complete restriction set for cliques.
func chainSet(n int) restrict.Set {
	var s restrict.Set
	for i := 1; i < n; i++ {
		s = append(s, restrict.Restriction{First: uint8(i), Second: uint8(i - 1)})
	}
	return s
}

// cliqueConfig builds K_q with the identity schedule and the chain set,
// bypassing the planner (whose schedule search is factorial in q).
func cliqueConfig(t *testing.T, q int) *Config {
	t.Helper()
	return mustConfig(t, pattern.Clique(q), identitySchedule(q), chainSet(q))
}

// matrixCompare counts under every (tier, workers, edge-parallel) cell and
// compares against the single-worker interpreter. Each tier also runs one
// cell with telemetry enabled: collection must leave the count bit-identical
// and must actually populate the per-level counters.
func matrixCompare(t *testing.T, name string, cfg *Config, g *graph.Graph, tiers []Tier, useIEP bool) {
	t.Helper()
	count := func(tier Tier, opt RunOptions) int64 {
		return cfg.Bind(useIEP, tier).Count(g, opt)
	}
	want := count(TierInterpret, RunOptions{Workers: 1})
	for _, tier := range tiers {
		for _, workers := range []int{1, 4} {
			for _, ep := range []EdgeParallelMode{EdgeParallelOff, EdgeParallelAuto, EdgeParallelOn} {
				got := count(tier, RunOptions{Workers: workers, EdgeParallel: ep})
				if got != want {
					t.Errorf("%s iep=%v tier=%s workers=%d edgePar=%d: counted %d, interpreter %d",
						name, useIEP, tier, workers, ep, got, want)
				}
			}
		}
		st := telemetry.NewRunStats(cfg.N())
		if got := count(tier, RunOptions{Workers: 4, Stats: st}); got != want {
			t.Errorf("%s iep=%v tier=%s with telemetry: counted %d, interpreter %d",
				name, useIEP, tier, got, want)
		}
		if st.Levels[0].Scans == 0 {
			t.Errorf("%s iep=%v tier=%s: telemetry run recorded no level-0 scans", name, useIEP, tier)
		}
		if leaf := st.Levels[cfg.N()-1]; cfg.Bind(false, tier).Tier() == TierGenerated && leaf.Candidates != uint64(want) {
			t.Errorf("%s iep=%v tier=%s: the clique kernel's leaf level scanned %d candidates, count is %d",
				name, useIEP, tier, leaf.Candidates, want)
		}
	}
}

// TestTierMatrixEvaluationPatterns runs the paper's evaluation patterns through
// the workers × scheduling matrix of the executor TierAuto picks (the
// interpreter: none of them is a clique) on plain and bitmap-accelerated
// graphs.
func TestTierMatrixEvaluationPatterns(t *testing.T) {
	g := graph.BarabasiAlbert(250, 4, 7)
	gHub := graph.BarabasiAlbert(250, 4, 7)
	gHub.BuildHubBitmaps(1<<24, 8)
	pats := []*pattern.Pattern{
		pattern.P1(), pattern.P2(), pattern.P3(), pattern.P4(), pattern.P5(),
	}
	if !testing.Short() {
		pats = append(pats, pattern.P6())
	}
	for _, p := range pats {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cfg := res.Best
		for _, gg := range []*graph.Graph{g, gHub} {
			for _, useIEP := range []bool{false, true} {
				matrixCompare(t, p.Name(), cfg, gg, []Tier{TierAuto}, useIEP)
			}
		}
	}
}

// TestGeneratedCliqueTierMatrix runs the clique kernel for every clique a
// pattern can be (K3..K12; the kernel itself has no upper limit and its own
// tests go past it) on a Barabási–Albert background with a planted K13
// overlapping it, so every size counts something nonzero and the interpreter
// sees the same graph.
func TestGeneratedCliqueTierMatrix(t *testing.T) {
	base := graph.BarabasiAlbert(160, 4, 21)
	b := graph.NewBuilder(base.NumVertices(), int(base.NumEdges())+100)
	for v := 0; v < base.NumVertices(); v++ {
		for _, w := range base.Neighbors(uint32(v)) {
			if uint32(v) < w {
				b.AddEdge(uint32(v), w)
			}
		}
	}
	// Plant a K13 across existing vertices (edges overlap the BA edges).
	for i := 0; i < 13; i++ {
		for j := i + 1; j < 13; j++ {
			b.AddEdge(uint32(i*7), uint32(j*7))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gHub := g
	if g2, err2 := b.Build(); err2 == nil {
		g2.BuildHubBitmaps(1<<24, 8)
		gHub = g2
	}
	for q := 3; q <= pattern.MaxVertices; q++ {
		cfg := cliqueConfig(t, q)
		if !cfg.clique {
			t.Fatalf("K%d chain config was not recognised as a total-order clique", q)
		}
		tiers := []Tier{TierAuto, TierGenerated}
		for _, gg := range []*graph.Graph{g, gHub} {
			matrixCompare(t, cfg.Pattern.Name(), cfg, gg, tiers, false)
			if q <= perm.MaxTableDegree {
				matrixCompare(t, cfg.Pattern.Name(), cfg, gg, tiers, true)
			}
		}
	}
}

// TestCliqueKernelOverCapRoot is the case the kernel's matrix cap exists for:
// a graph nobody reordered whose largest ids are adjacent to everything, so
// the last roots' candidate sets (4 500 vertices) exceed the 4 096 a bit
// matrix may hold. The kernel must narrow those roots on sorted lists first —
// seen as merge/gallop intersections at level 2, which in matrix mode only
// ever books word ANDs — and still agree with the interpreter.
func TestCliqueKernelOverCapRoot(t *testing.T) {
	const n, hubs = 4500, 3
	base := graph.BarabasiAlbert(n, 3, 17)
	b := graph.NewBuilder(n+hubs, int(base.NumEdges())+hubs*(n+hubs))
	for v := 0; v < n; v++ {
		for _, w := range base.Neighbors(uint32(v)) {
			if uint32(v) < w {
				b.AddEdge(uint32(v), w)
			}
		}
	}
	for h := n; h < n+hubs; h++ {
		for v := 0; v < h; v++ {
			b.AddEdge(uint32(v), uint32(h))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for q := 4; q <= 5; q++ { // a K3's list level is its last: nothing reaches level 2
		cfg := cliqueConfig(t, q)
		want := cfg.Bind(false, TierInterpret).Count(g, RunOptions{Workers: 1})
		for _, opt := range []RunOptions{
			{Workers: 1},
			{Workers: 4, EdgeParallel: EdgeParallelOn},
		} {
			opt.Stats = telemetry.NewRunStats(q)
			if got := cfg.Bind(false, TierGenerated).Count(g, opt); got != want {
				t.Errorf("K%d workers=%d: clique kernel counted %d, interpreter %d", q, opt.Workers, got, want)
			}
			l2 := opt.Stats.Levels[2]
			if l2.Kernels[telemetry.KernelMerge]+l2.Kernels[telemetry.KernelGallop] == 0 {
				t.Errorf("K%d workers=%d: no sorted-list intersection at level 2; the over-cap roots were not narrowed on lists", q, opt.Workers)
			}
		}
	}
}

// TestOneLoopIEPSuffix pins effectiveIEPK's rule: a one-loop suffix whose
// enumeration leaf is a length add runs as the plain (bounded) nest — no IEP
// evaluation, no scaling, bounds on every chain step — while the planner
// still sees KIEP() = 1; a one-loop suffix whose leaf needs a duplicate check
// keeps the IEP form.
func TestOneLoopIEPSuffix(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 3)
	k4 := cliqueConfig(t, 4)
	if k4.KIEP() != 1 || k4.effectiveIEPK() != 0 {
		t.Fatalf("K4 chain: KIEP %d, effective %d, want 1 and 0", k4.KIEP(), k4.effectiveIEPK())
	}
	st := telemetry.NewRunStats(4)
	want := k4.Bind(false, TierInterpret).Count(g, RunOptions{Workers: 1})
	if got := k4.Bind(true, TierInterpret).Count(g, RunOptions{Workers: 1, Stats: st}); got != want {
		t.Fatalf("K4 CountIEP = %d, Count = %d", got, want)
	}
	for d, l := range st.Levels {
		if l.IEPCounts != 0 {
			t.Errorf("K4 level %d evaluated the IEP %d times", d, l.IEPCounts)
		}
		if d >= 2 && l.Prunes != 0 {
			t.Errorf("K4 level %d pruned %d candidates at the scan; the chain's steps should have bounded them", d, l.Prunes)
		}
	}

	kept := false
	for _, p := range pattern.AllConnected(4) {
		for _, s := range schedule.Generate(p, schedule.Options{}).Efficient {
			cfg := mustConfig(t, p, s, nil)
			if cfg.KIEP() != 1 || len(cfg.dupCheck[cfg.n-1]) == 0 {
				continue
			}
			kept = true
			if cfg.effectiveIEPK() != 1 {
				t.Errorf("%s %v: leaf needs duplicate checks %v but the IEP suffix was given up", p, s, cfg.dupCheck[cfg.n-1])
			}
			if got, want := cfg.Bind(true, TierAuto).Count(g, RunOptions{Workers: 1}), cfg.Bind(false, TierAuto).Count(g, RunOptions{Workers: 1}); got != want {
				t.Errorf("%s %v: CountIEP %d, Count %d", p, s, got, want)
			}
		}
	}
	if !kept {
		t.Error("fixture has no one-loop suffix with a duplicate-checked leaf")
	}
}

// TestTierResolution pins the auto-selection and fallback rules, and that
// the removed closure tier runs nowhere but on the interpreter.
func TestTierResolution(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, 3)
	k4 := cliqueConfig(t, 4)
	res, err := Plan(pattern.House(), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	house := res.Best
	for _, tc := range []struct {
		cfg  *Config
		req  Tier
		want Tier
	}{
		{k4, TierAuto, TierGenerated},
		{k4, TierGenerated, TierGenerated},
		{k4, TierInterpret, TierInterpret},
		{k4, TierCompiled, TierInterpret},
		{house, TierAuto, TierInterpret},
		{house, TierGenerated, TierInterpret}, // no clique: falls back
		{house, TierCompiled, TierInterpret},
	} {
		if got := tc.cfg.Bind(false, tc.req).Tier(); got != tc.want {
			t.Errorf("%s requesting %s resolves to %s, want %s", tc.cfg.Pattern, tc.req, got, tc.want)
		}
		got, err := tc.cfg.CompileTier(g, true, tc.req)
		if fallback := tc.req == TierGenerated && tc.want != TierGenerated; (err != nil) != fallback {
			t.Errorf("%s CompileTier(%s) error = %v, want an error only for an unsatisfiable request", tc.cfg.Pattern, tc.req, err)
		} else if err == nil && got != tc.want {
			t.Errorf("%s CompileTier(%s) = %s, want %s", tc.cfg.Pattern, tc.req, got, tc.want)
		}
	}
}

// TestRandomizedConfigs is the property test: random graphs, random
// connected patterns, random valid schedules with the generated restriction
// sets — the executor TierAuto picks (the clique kernel for the total-order
// cliques among them) must agree with the single-worker interpreter at any
// worker count, including on configurations the planner would never pick.
func TestRandomizedConfigs(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 17))
	pats := pattern.AllConnected(4)
	pats = append(pats, pattern.AllConnected(5)...)
	for trial := 0; trial < 25; trial++ {
		g := graph.GNM(60+rng.IntN(60), 200+rng.IntN(300), rng.Uint64())
		p := pats[rng.IntN(len(pats))]
		sres := schedule.Generate(p, schedule.Options{KeepEliminated: true})
		// Include eliminated schedules too: their CandFull loops exercise
		// the full-scan path the planner never picks.
		scheds := append(append([]schedule.Schedule(nil), sres.Efficient...), sres.Eliminated...)
		s := scheds[rng.IntN(len(scheds))]
		sets, err := restrict.Generate(p, restrict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rs := sets[rng.IntN(len(sets))]
		if rng.IntN(4) == 0 {
			rs = nil // restriction-free: duplicate checks must survive lowering
		}
		cfg, err := NewConfig(p, s, rs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, useIEP := range []bool{false, true} {
			count := func(tier Tier, workers int) int64 {
				return cfg.Bind(useIEP, tier).Count(g, RunOptions{Workers: workers})
			}
			want := count(TierInterpret, 1)
			if got := count(TierAuto, 1+rng.IntN(4)); got != want {
				t.Errorf("trial %d %s sched=%v restr=%v iep=%v: %d, interpreter %d",
					trial, p, s, rs, useIEP, got, want)
			}
		}
	}
}

// TestCounterExecutor: a Counter — what cluster workers run — picks its
// executor by the rule a local count uses: the clique kernel for a
// total-order clique, the interpreter otherwise. Vertex- and slot-range
// covers must both reproduce the local count.
func TestCounterExecutor(t *testing.T) {
	g := graph.BarabasiAlbert(400, 6, 5)
	res, err := Plan(pattern.House(), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg    *Config
		clique bool
	}{
		{cliqueConfig(t, 4), true},
		{cliqueConfig(t, 5), true},
		{res.Best, false},
	} {
		for _, useIEP := range []bool{false, true} {
			want := tc.cfg.Bind(true, TierInterpret).Count(g, RunOptions{Workers: 1})
			c := NewCounter(tc.cfg.Bind(useIEP, TierAuto), g, nil)
			if _, ok := c.w.(*codegen.Clique); ok != tc.clique {
				t.Fatalf("%s: counter runs %T, want the clique kernel: %v", tc.cfg.Pattern, c.w, tc.clique)
			}
			c.CountRange(0, g.NumVertices())
			if got := tc.cfg.Bind(useIEP, TierAuto).ScaleIEP(c.Raw()); got != want {
				t.Errorf("%s iep=%v: vertex-range counter %d, local %d", tc.cfg.Pattern, useIEP, got, want)
			}
			if !tc.cfg.Bind(useIEP, TierAuto).EdgeParallelEligible() {
				continue
			}
			c = NewCounter(tc.cfg.Bind(useIEP, TierAuto), g, nil)
			for _, tk := range equalCut(g.NumAdjSlots(), 37) {
				c.CountEdgeRange(tk.Start, tk.End)
			}
			if got := tc.cfg.Bind(useIEP, TierAuto).ScaleIEP(c.Raw()); got != want {
				t.Errorf("%s iep=%v: slot-range counter %d, local %d", tc.cfg.Pattern, useIEP, got, want)
			}
		}
	}
}
