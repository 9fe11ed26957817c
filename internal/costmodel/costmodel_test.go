package costmodel

import (
	"math"
	"math/rand/v2"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/perm"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

func testParams() Params {
	// A Patents-like sparse graph: 100k vertices, 500k edges, 400k triangles.
	return Params{Vertices: 100000, Edges: 500000, Triangles: 400000}
}

func TestProbabilities(t *testing.T) {
	p := testParams()
	wantP1 := 2.0 * 500000 / (100000.0 * 100000.0)
	if got := p.P1(); math.Abs(got-wantP1) > 1e-15 {
		t.Errorf("P1 = %v, want %v", got, wantP1)
	}
	wantP2 := 400000.0 * 100000.0 / (1000000.0 * 1000000.0)
	if got := p.P2(); math.Abs(got-wantP2) > 1e-15 {
		t.Errorf("P2 = %v, want %v", got, wantP2)
	}
	if got := p.AvgDegree(); got != 10 {
		t.Errorf("AvgDegree = %v, want 10", got)
	}
	// Triangle-free graphs get the epsilon floor, not zero.
	nop2 := Params{Vertices: 100, Edges: 200, Triangles: 0}
	if nop2.P2() <= 0 {
		t.Error("P2 floor missing")
	}
	var zero Params
	if zero.P1() != 0 || zero.P2() != 0 || zero.AvgDegree() != 0 {
		t.Error("zero params should be zero")
	}
}

func TestFilterProbabilities(t *testing.T) {
	// Paper: a single restriction id(A)>id(B) with A at loop 0, B at loop
	// 1 filters half the orders at loop 1 → f = [0, 1/2, 0, 0, 0].
	f := FilterProbabilities(5, [][2]uint8{{0, 1}})
	if f[0] != 0 || math.Abs(f[1]-0.5) > 1e-12 {
		t.Errorf("f = %v, want f[1] = 0.5", f)
	}
	for i := 2; i < 5; i++ {
		if f[i] != 0 {
			t.Errorf("f[%d] = %v, want 0", i, f[i])
		}
	}
	// Chained restrictions: id(0)>id(1) at loop 1 (keeps 1/2), then
	// id(1)>id(2) at loop 2. Orders with σ0>σ1>σ2 are 1/6 of all; of the
	// 1/2 surviving loop 1, 1/3 survive loop 2 → f[2] = 2/3.
	f = FilterProbabilities(3, [][2]uint8{{0, 1}, {1, 2}})
	if math.Abs(f[1]-0.5) > 1e-12 || math.Abs(f[2]-2.0/3.0) > 1e-12 {
		t.Errorf("chain f = %v, want [0, 0.5, 0.667]", f)
	}
	// No restrictions → all zero.
	f = FilterProbabilities(4, nil)
	for _, v := range f {
		if v != 0 {
			t.Errorf("no-restriction f = %v", f)
		}
	}
}

// buildFor compiles a plan and maps a restriction set for a pattern and
// schedule order.
func buildFor(t *testing.T, p *pattern.Pattern, order []uint8, rs restrict.Set) (schedule.Plan, [][2]uint8) {
	t.Helper()
	s := schedule.Schedule{Order: order}
	plan := schedule.BuildPlan(schedule.RelabeledPattern(p, s), p.N())
	raw := make([][2]uint8, len(rs))
	for i, r := range rs {
		raw[i] = [2]uint8{r.First, r.Second}
	}
	return plan, schedule.MapRestrictions(s, raw)
}

func TestEstimateOrdersSchedulesSensibly(t *testing.T) {
	// For the House on a sparse triangle-poor graph, the connected
	// schedule must be predicted far cheaper than the one starting with
	// the disconnected pair (2,4), whose third loop scans all |V| vertices.
	h := pattern.House()
	p := testParams()
	good, _ := buildFor(t, h, []uint8{0, 1, 2, 3, 4}, nil)
	bad, _ := buildFor(t, h, []uint8{2, 4, 0, 1, 3}, nil)
	cGood := Estimate(good, 5, nil, p, GraphPi).Cost
	cBad := Estimate(bad, 5, nil, p, GraphPi).Cost
	if cGood >= cBad {
		t.Errorf("connected schedule cost %g ≥ disconnected %g", cGood, cBad)
	}
	if cBad/cGood < 100 {
		t.Errorf("expected ≫100× gap, got %g", cBad/cGood)
	}
}

func TestEstimateRestrictionsReduceCost(t *testing.T) {
	// Adding a valid restriction set must never increase predicted cost,
	// and an outer-loop restriction should reduce it materially.
	h := pattern.House()
	p := testParams()
	sets, err := restrict.Generate(h, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := []uint8{0, 1, 2, 3, 4}
	plan, _ := buildFor(t, h, order, nil)
	base := Estimate(plan, 5, nil, p, GraphPi).Cost
	for _, rs := range sets {
		_, mapped := buildFor(t, h, order, rs)
		c := Estimate(plan, 5, mapped, p, GraphPi).Cost
		if c > base+1e-6 {
			t.Errorf("restricted cost %g > unrestricted %g for %v", c, base, rs)
		}
	}
}

func TestEstimateDifferentRestrictionSetsDiffer(t *testing.T) {
	// The core Table-II phenomenon: for a fixed schedule, different
	// complete restriction sets have different predicted cost (the filter
	// lands in different loops).
	h := pattern.House()
	p := testParams()
	sets, err := restrict.Generate(h, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) < 2 {
		t.Skip("need ≥2 sets")
	}
	order := []uint8{0, 1, 2, 3, 4}
	plan, _ := buildFor(t, h, order, nil)
	costs := map[float64]bool{}
	for _, rs := range sets {
		_, mapped := buildFor(t, h, order, rs)
		costs[Estimate(plan, 5, mapped, p, GraphPi).Cost] = true
	}
	if len(costs) < 2 {
		t.Error("all restriction sets predicted identical cost")
	}
}

func TestGraphZeroApproxIgnoresTriangles(t *testing.T) {
	h := pattern.House()
	rich := Params{Vertices: 1e5, Edges: 5e5, Triangles: 4e6}
	poor := Params{Vertices: 1e5, Edges: 5e5, Triangles: 4}
	order := []uint8{0, 1, 2, 3, 4}
	plan, _ := buildFor(t, h, order, nil)
	cRich := Estimate(plan, 5, nil, rich, GraphZeroApprox).Cost
	cPoor := Estimate(plan, 5, nil, poor, GraphZeroApprox).Cost
	if cRich != cPoor {
		t.Error("GraphZeroApprox should be blind to triangle counts")
	}
	gRich := Estimate(plan, 5, nil, rich, GraphPi).Cost
	gPoor := Estimate(plan, 5, nil, poor, GraphPi).Cost
	if gRich == gPoor {
		t.Error("GraphPi model should be sensitive to triangle counts")
	}
}

func TestRank(t *testing.T) {
	h := pattern.House()
	p := testParams()
	res := schedule.Generate(h, schedule.Options{})
	sets, err := restrict.Generate(h, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]schedule.Plan, len(res.Efficient))
	posRestr := make([][][][2]uint8, len(res.Efficient))
	for i, s := range res.Efficient {
		plans[i] = schedule.BuildPlan(schedule.RelabeledPattern(h, s), h.N())
		for _, rs := range sets {
			raw := make([][2]uint8, len(rs))
			for j, r := range rs {
				raw[j] = [2]uint8{r.First, r.Second}
			}
			posRestr[i] = append(posRestr[i], schedule.MapRestrictions(s, raw))
		}
	}
	ranked := Rank(plans, h.N(), posRestr, p, GraphPi)
	if len(ranked) != len(res.Efficient)*len(sets) {
		t.Fatalf("ranked %d configs, want %d", len(ranked), len(res.Efficient)*len(sets))
	}
	for i := 1; i < len(ranked); i++ {
		a, b := ranked[i-1], ranked[i]
		if b.Cost < a.Cost {
			t.Fatal("rankings not sorted")
		}
		// Equal predictions keep (schedule, set) order: the planner's choice
		// among ties must not depend on the sort.
		if a.Cost == b.Cost && (a.ScheduleIdx > b.ScheduleIdx ||
			a.ScheduleIdx == b.ScheduleIdx && a.RestrictionIdx > b.RestrictionIdx) {
			t.Fatalf("tie at cost %v ordered %+v before %+v", a.Cost, a, b)
		}
	}
}

// enumerateFilterProbabilities is the n! walk FilterProbabilities replaced:
// apply each loop's restrictions to every relative order in schedule order
// and record at which loop it is first filtered.
func enumerateFilterProbabilities(n int, posRestrictions [][2]uint8) []float64 {
	f := make([]float64, n)
	checks := make([][][2]uint8, n)
	for _, r := range posRestrictions {
		checks[max(r[0], r[1])] = append(checks[max(r[0], r[1])], r)
	}
	filteredAt := make([]int64, n+1)
	perm.ForEach(n, func(sigma perm.Perm) bool {
		at := n
	scan:
		for i := 0; i < n; i++ {
			for _, r := range checks[i] {
				if sigma[r[0]] <= sigma[r[1]] {
					at = i
					break scan
				}
			}
		}
		filteredAt[at]++
		return true
	})
	surviving := float64(perm.Factorial(n))
	for i := 0; i < n; i++ {
		if surviving > 0 {
			f[i] = float64(filteredAt[i]) / surviving
		}
		surviving -= float64(filteredAt[i])
	}
	return f
}

// TestFilterProbabilitiesMatchEnumeration: the counted f_i must equal the
// enumerated ones to the last bit, or predicted costs — and with them ranking
// ties — could move.
func TestFilterProbabilitiesMatchEnumeration(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 5))
	for n := 1; n <= 7; n++ {
		for trial := 0; trial < 60; trial++ {
			// Odd trials draw from a hidden order (satisfiable); even trials
			// orient pairs at random (often contradictory: some f_i = 1).
			hidden := r.Perm(n)
			var rs [][2]uint8
			for k := r.IntN(2 * n); k > 0 && n > 1; k-- {
				a, b := r.IntN(n), r.IntN(n)
				if a == b {
					continue
				}
				if trial%2 == 1 && hidden[a] < hidden[b] {
					a, b = b, a
				}
				rs = append(rs, [2]uint8{uint8(a), uint8(b)})
			}
			got, want := FilterProbabilities(n, rs), enumerateFilterProbabilities(n, rs)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d %v: f[%d] = %v, enumeration %v", n, rs, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFromStats(t *testing.T) {
	g := graph.Complete(10)
	p := FromStats(g.Stats())
	if p.Vertices != 10 || p.Edges != 45 || p.Triangles != 120 {
		t.Errorf("FromStats = %+v", p)
	}
}
