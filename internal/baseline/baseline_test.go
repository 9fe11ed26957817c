package baseline

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

func testPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.House(),
		pattern.Pentagon(), pattern.CompleteBipartite(2, 3),
	}
}

func TestAllSystemsAgree(t *testing.T) {
	// The paper's correctness check (§V-A): GraphPi and the reproduced
	// GraphZero must produce the brute-force embedding counts.
	g := graph.GNP(18, 0.4, 99)
	for _, p := range testPatterns() {
		want := BruteForceCount(g, p)
		gz, err := core.PlanGraphZero(p, g.Stats())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got := gz.Best.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1}); got != want {
			t.Errorf("%s: GraphZero = %d, want %d", p, got, want)
		}
		res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if gp := res.Best.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1}); gp != want {
			t.Errorf("%s: GraphPi = %d, want %d", p, gp, want)
		}
	}
}

func TestBruteForceTinyCases(t *testing.T) {
	if got := BruteForceCount(graph.Complete(4), pattern.Triangle()); got != 4 {
		t.Errorf("K4 triangles = %d, want 4", got)
	}
	if got := BruteForceCount(graph.Cycle(5), pattern.Pentagon()); got != 1 {
		t.Errorf("C5 pentagons = %d, want 1", got)
	}
	// Pattern larger than graph.
	if got := BruteForceCount(graph.Complete(3), pattern.House()); got != 0 {
		t.Errorf("undersized graph = %d, want 0", got)
	}
}

func TestConnectedOrder(t *testing.T) {
	for _, p := range testPatterns() {
		order := connectedOrder(p)
		if len(order) != p.N() {
			t.Fatalf("%s: order %v wrong length", p, order)
		}
		if !p.PrefixConnected(order) {
			t.Errorf("%s: order %v not prefix connected", p, order)
		}
	}
}

func TestSystemsAgreeProperty(t *testing.T) {
	// On random graphs and random connected patterns, the reproduced
	// GraphZero plan counts what the brute force oracle counts.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 555))
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
		g := graph.GNP(14, 0.4, seed)
		gz, err := core.PlanGraphZero(p, g.Stats())
		return err == nil && gz.Best.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1}) == BruteForceCount(g, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
