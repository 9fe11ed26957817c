package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

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

// matrixArms is the tier matrix: every (tier, workers) cell,
// each held to the single-worker interpreter, and one telemetry run per
// tier: collection must leave the count bit-identical and must actually
// populate the per-level counters.
func matrixArms(iep bool, tiers ...Tier) []arm {
	return table(
		axes{tier: tiers, iep: []bool{iep}, workers: []int{1, 4}},
		axes{tier: tiers, iep: []bool{iep}, workers: []int{4}, stats: on},
	)
}

// TestTierMatrixEvaluationPatterns runs the paper's evaluation patterns through
// the workers × scheduling matrix of the executor TierAuto picks (the
// interpreter: none of them is a clique) on plain and bitmap-accelerated
// graphs.
func TestTierMatrixEvaluationPatterns(t *testing.T) {
	g := graph.BarabasiAlbert(250, 4, 7)
	gHub := graph.BarabasiAlbert(250, 4, 7)
	gHub.BuildHubBitmaps(1<<24, 8)
	pats := []*pattern.Pattern{pattern.P1(), pattern.P2(), pattern.P3(), pattern.P4(), pattern.P5()}
	if !testing.Short() {
		pats = append(pats, pattern.P6())
	}
	for _, p := range pats {
		cfg := planFor(t, g, p)
		for _, gg := range []*graph.Graph{g, gHub} {
			checkArms(t, p.Name(), gg, cfg, reference(cfg, gg), append(matrixArms(false, TierAuto), matrixArms(true, TierAuto)...))
		}
	}
}

// TestGeneratedCliqueTierMatrix runs the clique kernel for every clique a
// pattern can be (K3..K12; the kernel itself has no upper limit and its own
// tests go past it) on a Barabási–Albert background with a planted K13
// overlapping it, so every size counts something nonzero and the interpreter
// sees the same graph.
func TestGeneratedCliqueTierMatrix(t *testing.T) {
	// Plant a K13 across existing vertices (edges overlap the BA edges).
	plantK13 := func() *graph.Graph {
		return buildGraph(t, 160, graph.BarabasiAlbert(160, 4, 21), func(add func(u, v int)) {
			for i := 0; i < 13; i++ {
				for j := i + 1; j < 13; j++ {
					add(i*7, j*7)
				}
			}
		})
	}
	g, gHub := plantK13(), plantK13()
	gHub.BuildHubBitmaps(1<<24, 8)
	for q := 3; q <= pattern.MaxVertices; q++ {
		cfg := cliqueConfig(t, q)
		if !cfg.clique {
			t.Fatalf("K%d chain config was not recognised as a total-order clique", q)
		}
		arms := matrixArms(false, TierAuto, TierGenerated)
		if q <= perm.MaxTableDegree {
			arms = append(arms, matrixArms(true, TierAuto, TierGenerated)...)
		}
		for _, gg := range []*graph.Graph{g, gHub} {
			checkArms(t, cfg.Pattern.Name(), gg, cfg, reference(cfg, gg), arms)
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
	g := buildGraph(t, n+hubs, graph.BarabasiAlbert(n, 3, 17), func(add func(u, v int)) {
		for h := n; h < n+hubs; h++ {
			for v := 0; v < h; v++ {
				add(v, h)
			}
		}
	})
	arms := table(
		axes{tier: []Tier{TierGenerated}, stats: on},
		axes{tier: []Tier{TierGenerated}, workers: []int{4}, stats: on},
	)
	for q := 4; q <= 5; q++ { // a K3's list level is its last: nothing reaches level 2
		cfg := cliqueConfig(t, q)
		for i, r := range checkArms(t, fmt.Sprintf("K%d", q), g, cfg, reference(cfg, g), arms) {
			if l2 := r.stats.Levels[2]; l2.Kernels[telemetry.KernelMerge]+l2.Kernels[telemetry.KernelGallop] == 0 {
				t.Errorf("K%d [%s]: no sorted-list intersection at level 2; the over-cap roots were not narrowed on lists", q, arms[i])
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
	st := checkArms(t, "K4", g, k4, reference(k4, g), axes{tier: interpreted, iep: on, stats: on}.arms())[0].stats
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
			checkArms(t, fmt.Sprintf("%s %v", p, s), g, cfg, reference(cfg, g), axes{iep: on}.arms())
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
	house := planFor(t, g, pattern.House())
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
		cfg := mustConfig(t, p, s, rs)
		arms := table(
			axes{tier: interpreted, iep: on},
			axes{workers: []int{1 + rng.IntN(4)}},
			axes{iep: on, workers: []int{1 + rng.IntN(4)}},
		)
		checkArms(t, fmt.Sprintf("trial %d %s sched=%v restr=%v", trial, p, s, rs), g, cfg, reference(cfg, g), arms)
	}
}

// TestCounterExecutor: a Counter — what cluster workers run — picks its
// executor by the rule a local count uses: the clique kernel for a
// total-order clique, the interpreter otherwise. A cover of the binding's
// task space by one range or by ranges of 37 must reproduce the local count.
func TestCounterExecutor(t *testing.T) {
	g := graph.BarabasiAlbert(400, 6, 5)
	arms := table(
		axes{entry: counted, iep: both, chunk: []int{0, 37}},
	)
	for _, tc := range []struct {
		cfg    *Config
		clique bool
	}{
		{cliqueConfig(t, 4), true},
		{cliqueConfig(t, 5), true},
		{planFor(t, g, pattern.House()), false},
	} {
		for _, iep := range both {
			if got := tc.cfg.Bind(iep, TierAuto).Tier() == TierGenerated; got != tc.clique {
				t.Fatalf("%s iep=%v: binds the clique kernel: %v, want %v", tc.cfg.Pattern, iep, got, tc.clique)
			}
		}
		checkArms(t, tc.cfg.Pattern.String(), g, tc.cfg, reference(tc.cfg, g), arms)
	}
}
