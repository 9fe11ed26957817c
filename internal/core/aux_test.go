package core

import (
	"context"
	"testing"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

// auxMatrixCompare counts under every (tier, workers, aux mode) cell and
// compares against the aux-free single-worker interpreter. One cell per tier
// collects telemetry and, when the tier resolves to the interpreter and
// expectActive is set, must show auxiliary rows built — proving the pruned
// path ran rather than silently falling back.
func auxMatrixCompare(t *testing.T, name string, cfg *Config, g *graph.Graph, useIEP, expectActive bool) {
	t.Helper()
	count := func(opt RunOptions) int64 {
		if useIEP {
			return cfg.CountIEP(g, opt)
		}
		return cfg.Count(g, opt)
	}
	want := count(RunOptions{Workers: 1, Tier: TierInterpret})
	for _, tier := range []Tier{TierInterpret, TierAuto} {
		for _, workers := range []int{1, 4} {
			for _, mode := range []AuxMode{AuxOn, AuxForce} {
				got := count(RunOptions{Workers: workers, Tier: tier, Aux: mode})
				if got != want {
					t.Errorf("%s iep=%v tier=%s workers=%d aux=%s: counted %d, plain interpreter %d",
						name, useIEP, tier, workers, mode, got, want)
				}
			}
		}
		st := telemetry.NewRunStats(cfg.N())
		if got := count(RunOptions{Workers: 2, Tier: tier, Aux: AuxForce, Stats: st}); got != want {
			t.Errorf("%s iep=%v tier=%s forced with telemetry: counted %d, want %d",
				name, useIEP, tier, got, want)
		}
		if cfg.ResolveTier(tier) == TierGenerated {
			// The clique kernel runs aux-free by design (its per-root bit
			// matrix already is the pruned adjacency); counts above still had
			// to match, but no activity is expected.
			continue
		}
		if expectActive && (st.Aux.Roots == 0 || st.Aux.Rows == 0) {
			t.Errorf("%s iep=%v tier=%s: forced aux built nothing (stats %+v)",
				name, useIEP, tier, st.Aux)
		}
		var auxServed uint64
		for _, lv := range st.Levels {
			auxServed += lv.Kernels[telemetry.KernelAux]
		}
		if expectActive && auxServed == 0 {
			t.Errorf("%s iep=%v tier=%s: no intersections served from pruned rows",
				name, useIEP, tier)
		}
	}
}

// TestAuxEquivalenceMatrix is the aux arm of the tier equivalence matrix:
// deep named patterns and cliques on plain and hub-accelerated graphs, plain
// and IEP, on the interpreter and on whatever TierAuto picks — counts must be
// bit-identical with pruning on, forced, or cost-model-gated.
func TestAuxEquivalenceMatrix(t *testing.T) {
	g := graph.BarabasiAlbert(250, 6, 7)
	gHub := graph.BarabasiAlbert(250, 6, 7)
	gHub.BuildHubBitmaps(1<<24, 8)
	pats := []*pattern.Pattern{
		pattern.Clique(5), pattern.House(), pattern.Cycle6Tri(), pattern.Prism(),
	}
	if !testing.Short() {
		pats = append(pats, pattern.Clique(6), pattern.CliqueMinus(6))
	}
	for _, p := range pats {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cfg := res.Best
		for _, gg := range []*graph.Graph{g, gHub} {
			for _, useIEP := range []bool{false, true} {
				// Only assert activity where the schedule has deep aux steps;
				// IEP can cut the schedule above every reusable level.
				auxMatrixCompare(t, p.Name(), cfg, gg, useIEP, cfg.AuxEligible(useIEP))
			}
		}
	}
}

// TestAuxIneligibleSchedule pins the no-eligible-level path: trees have no
// triangle (no deep vertex adjacent to both the root and a sibling candidate
// chain worth reusing), so forcing aux must be a silent no-op — correct
// counts, zero aux activity, zero scratch built.
func TestAuxIneligibleSchedule(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 13)
	for _, p := range []*pattern.Pattern{pattern.StarN(4), pattern.PathN(4)} {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cfg := res.Best
		for _, useIEP := range []bool{false, true} {
			if cfg.AuxEligible(useIEP) {
				// Eligibility depends on the planned schedule; if the planner
				// found a reusable level this fixture cannot pin ineligibility.
				t.Skipf("%s iep=%v: planner produced an aux-eligible schedule", p, useIEP)
			}
			want := cfg.Count(g, RunOptions{Workers: 1})
			st := telemetry.NewRunStats(cfg.N())
			got := cfg.Count(g, RunOptions{Workers: 2, Aux: AuxForce, Stats: st})
			if got != want {
				t.Errorf("%s: forced aux on ineligible schedule counted %d, want %d", p, got, want)
			}
			if st.Aux != (telemetry.AuxStats{}) {
				t.Errorf("%s: ineligible schedule recorded aux activity %+v", p, st.Aux)
			}
		}
	}
}

// TestAuxStarvedBudget pins the budget-smaller-than-one-level path: a view
// budget too small for even one worker's index + minimum arena must disable
// the scratch (not crash, not build partial structures) and leave counts
// bit-identical.
func TestAuxStarvedBudget(t *testing.T) {
	g := graph.BarabasiAlbert(250, 6, 7)
	res, err := Plan(pattern.Clique(5), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Best
	want := cfg.Count(g, RunOptions{Workers: 1})
	for _, budget := range []int64{1, 1024, 4 * int64(g.NumVertices())} {
		st := telemetry.NewRunStats(cfg.N())
		got := cfg.Count(g, RunOptions{Workers: 2, Aux: AuxForce, AuxBudget: budget, Stats: st})
		if got != want {
			t.Errorf("budget %d: counted %d, want %d", budget, got, want)
		}
		if st.Aux != (telemetry.AuxStats{}) {
			t.Errorf("budget %d: starved run recorded aux activity %+v", budget, st.Aux)
		}
	}
}

// TestAuxCancellationMidBuild pins prompt cancellation with pruning active:
// the lazily built scratch must not delay the outer-loop cancellation checks
// or leak into the partial tally.
func TestAuxCancellationMidBuild(t *testing.T) {
	g := graph.BarabasiAlbert(12000, 16, 7)
	res, err := Plan(pattern.Clique(5), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Best
	if !cfg.AuxEligible(false) {
		t.Fatal("K5 fixture should be aux-eligible")
	}

	// Uncancelled baseline: the cancelled run below must beat it decisively
	// or the cancel did not propagate. Aux scratch lives on the interpreter
	// only, so both runs force it.
	t0 := time.Now()
	want := cfg.Count(g, RunOptions{Workers: 2, Tier: TierInterpret, Aux: AuxForce})
	full := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	t0 = time.Now()
	n, err := cfg.CountCtx(ctx, g, RunOptions{Workers: 2, Tier: TierInterpret, Aux: AuxForce})
	elapsed := time.Since(t0)
	if err == nil {
		t.Skip("search finished before the cancel fired")
	}
	if err != context.Canceled {
		t.Fatalf("CountCtx error = %v, want context.Canceled", err)
	}
	if n < 0 || n > want {
		t.Fatalf("partial tally %d outside [0, %d]", n, want)
	}
	if elapsed >= full {
		t.Fatalf("cancelled aux run took %v, full run takes %v", elapsed, full)
	}

	// Pre-cancelled: no scratch is built at all.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	st := telemetry.NewRunStats(cfg.N())
	n, err = cfg.CountCtx(ctx, g, RunOptions{Workers: 1, Tier: TierInterpret, Aux: AuxForce, Stats: st})
	if err != context.Canceled || n != 0 {
		t.Fatalf("pre-cancelled: (%d, %v), want (0, context.Canceled)", n, err)
	}
	if st.Aux.Rows != 0 {
		t.Fatalf("pre-cancelled run built %d rows", st.Aux.Rows)
	}
}

// TestAuxModeParsing pins the CLI/service surface of the mode names.
func TestAuxModeParsing(t *testing.T) {
	cases := map[string]AuxMode{
		"": AuxOff, "off": AuxOff, "0": AuxOff, "false": AuxOff,
		"on": AuxOn, "1": AuxOn, "true": AuxOn, "auto": AuxOn,
		"force": AuxForce,
	}
	for in, want := range cases {
		got, err := ParseAuxMode(in)
		if err != nil || got != want {
			t.Errorf("ParseAuxMode(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseAuxMode("banana"); err == nil {
		t.Error("ParseAuxMode accepted garbage")
	}
	for _, m := range []AuxMode{AuxOff, AuxOn, AuxForce} {
		back, err := ParseAuxMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v -> %q -> (%v, %v)", m, m.String(), back, err)
		}
	}
}

// TestAuxPredictShape sanity-checks the cost model plumbing: a planned deep
// clique must expose an estimate, and a manual configuration (no planner
// statistics) must report ok=false.
func TestAuxPredictShape(t *testing.T) {
	g := graph.BarabasiAlbert(250, 6, 7)
	res, err := Plan(pattern.Clique(5), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est, ok := res.Best.AuxPredict(false)
	if !ok {
		t.Fatal("planned configuration carries no aux estimate")
	}
	if !est.Eligible || est.BuildCost <= 0 {
		t.Fatalf("estimate %+v: want eligible with positive build cost", est)
	}
	manual := cliqueConfig(t, 5)
	if _, ok := manual.AuxPredict(false); ok {
		t.Fatal("manual configuration should have no planner statistics")
	}
}
