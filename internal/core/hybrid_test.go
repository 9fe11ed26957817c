package core

import (
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
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
// graph, at 1 and N workers, with edge-parallel roots on and off.
func TestHybridGraphEquivalence(t *testing.T) {
	pats := append(pattern.EvaluationPatterns(),
		pattern.Triangle(), pattern.Rectangle(), pattern.Clique(4))
	arms := axes{iep: both, workers: []int{1, 4}, shape: forcedShapes}.arms()
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
	arms := axes{entry: enumerated, workers: []int{1, 4}, shape: forcedShapes}.arms()
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
	checkArms(t, "hybrid unrestricted path", rg, cfg, want, axes{workers: []int{3}, shape: slotTasks}.arms())
}

// TestEdgeParallelEligibility pins when the flattened root sweep may engage.
func TestEdgeParallelEligibility(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 8)
	tri := planFor(t, g, pattern.Triangle())
	if !tri.Bind(false, TierAuto).EdgeParallelEligible() {
		t.Error("triangle enumeration should be edge-parallel eligible")
	}
	// Single-vertex pattern: no second loop.
	one := mustConfig(t, pattern.MustNew(1, nil, "v"), identitySchedule(1), nil)
	if one.Bind(false, TierAuto).EdgeParallelEligible() {
		t.Error("1-vertex pattern cannot be edge-parallel")
	}
	// IEP consuming everything after depth 0 leaves no depth-1 loop.
	star := planFor(t, g, pattern.StarN(3))
	if star.effectiveIEPK() >= star.N()-1 && star.Bind(true, TierAuto).EdgeParallelEligible() {
		t.Error("full-suffix IEP run cannot be edge-parallel")
	}
}
