package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// hybridTestGraphs returns (original, hybrid) pairs: the hybrid view is
// degree-ordered with hub bitmaps built. A tiny budget variant exercises the
// "reordered but no bitmaps" combination too.
func hybridTestGraphs(t *testing.T) []struct {
	name string
	orig *graph.Graph
	hyb  *graph.Graph
} {
	t.Helper()
	ba := graph.BarabasiAlbert(400, 4, 5)
	gnm := graph.GNM(300, 1200, 9)
	star := graph.Star(200) // extreme skew: one hub owns every edge
	out := []struct {
		name string
		orig *graph.Graph
		hyb  *graph.Graph
	}{
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
func planFor(t *testing.T, g *graph.Graph, pat *pattern.Pattern) *Config {
	t.Helper()
	res, err := Plan(pat, g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatalf("plan %s: %v", pat, err)
	}
	return res.Best
}

// TestHybridGraphEquivalence is the correctness invariant of the hybrid
// adjacency engine: for every named pattern, Count, CountIEP and Enumerate
// return identical results on the degree-ordered + bitmap-backed graph and
// on the original graph, at 1 and N workers, with edge-parallel roots on and
// off.
func TestHybridGraphEquivalence(t *testing.T) {
	pats := append(pattern.EvaluationPatterns(),
		pattern.Triangle(), pattern.Rectangle(), pattern.Clique(4))
	for _, gs := range hybridTestGraphs(t) {
		for _, pat := range pats {
			if pat.N() >= 6 && gs.name != "star" {
				continue // keep the suite fast; P3/P5/P6 run on the star
			}
			cfg := planFor(t, gs.orig, pat)
			want := cfg.Count(gs.orig, RunOptions{Workers: 1, EdgeParallel: EdgeParallelOff})
			wantIEP := cfg.CountIEP(gs.orig, RunOptions{Workers: 1, EdgeParallel: EdgeParallelOff})
			if want != wantIEP {
				t.Fatalf("%s/%s: seed Count %d != CountIEP %d", gs.name, pat.Name(), want, wantIEP)
			}
			for _, workers := range []int{1, 4} {
				for _, ep := range []EdgeParallelMode{EdgeParallelOff, EdgeParallelOn} {
					opt := RunOptions{Workers: workers, EdgeParallel: ep}
					label := fmt.Sprintf("%s/%s/w=%d/ep=%d", gs.name, pat.Name(), workers, ep)
					if got := cfg.Count(gs.hyb, opt); got != want {
						t.Errorf("%s: hybrid Count = %d, want %d", label, got, want)
					}
					if got := cfg.CountIEP(gs.hyb, opt); got != want {
						t.Errorf("%s: hybrid CountIEP = %d, want %d", label, got, want)
					}
					if got := cfg.Count(gs.orig, opt); got != want {
						t.Errorf("%s: original Count = %d, want %d", label, got, want)
					}
				}
			}
		}
	}
}

// TestHybridEnumerateReportsOriginalIDs checks that enumeration on the
// reordered graph yields exactly the same embedding set, in original vertex
// ids, as enumeration on the original graph. Restrictions orient each
// embedding by data-vertex id order, which differs between the two id
// spaces, so embeddings are canonicalized up to pattern automorphism before
// comparison.
func TestHybridEnumerateReportsOriginalIDs(t *testing.T) {
	for _, gs := range hybridTestGraphs(t) {
		for _, pat := range []*pattern.Pattern{pattern.Triangle(), pattern.House()} {
			cfg := planFor(t, gs.orig, pat)
			auts := pat.Automorphisms()
			canon := func(e []uint32) string {
				best := ""
				relabeled := make([]string, len(e)) // per call: visit runs concurrently
				for _, a := range auts {
					for i := range e {
						relabeled[i] = fmt.Sprint(e[a[i]])
					}
					s := strings.Join(relabeled, ",")
					if best == "" || s < best {
						best = s
					}
				}
				return best
			}
			collect := func(g *graph.Graph, workers int, ep EdgeParallelMode) []string {
				var embs []string
				var lock = make(chan struct{}, 1)
				lock <- struct{}{}
				cfg.Enumerate(g, RunOptions{Workers: workers, EdgeParallel: ep}, func(e []uint32) bool {
					s := canon(e)
					<-lock
					embs = append(embs, s)
					lock <- struct{}{}
					return true
				})
				sort.Strings(embs)
				return embs
			}
			want := collect(gs.orig, 1, EdgeParallelOff)
			for _, workers := range []int{1, 4} {
				for _, ep := range []EdgeParallelMode{EdgeParallelOff, EdgeParallelOn} {
					got := collect(gs.hyb, workers, ep)
					if len(got) != len(want) {
						t.Fatalf("%s/%s w=%d ep=%d: %d embeddings, want %d",
							gs.name, pat.Name(), workers, ep, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s/%s w=%d ep=%d: embedding %d = %s, want %s",
								gs.name, pat.Name(), workers, ep, i, got[i], want[i])
						}
					}
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
	if got := cfg.Count(g, RunOptions{Workers: 1}); got != want {
		t.Fatalf("unrestricted path count = %d, want %d", got, want)
	}
	rg := g.Reorder()
	rg.BuildHubBitmaps(1<<22, 0)
	if got := cfg.Count(rg, RunOptions{Workers: 3, EdgeParallel: EdgeParallelOn}); got != want {
		t.Fatalf("hybrid unrestricted path count = %d, want %d", got, want)
	}
}

// TestEdgeParallelEligibility pins when the flattened root sweep may engage.
func TestEdgeParallelEligibility(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 8)
	tri := planFor(t, g, pattern.Triangle())
	if !tri.EdgeParallelEligible(false) {
		t.Error("triangle enumeration should be edge-parallel eligible")
	}
	// Single-vertex pattern: no second loop.
	one := mustConfig(t, pattern.MustNew(1, nil, "v"), identitySchedule(1), nil)
	if one.EdgeParallelEligible(false) {
		t.Error("1-vertex pattern cannot be edge-parallel")
	}
	// IEP consuming everything after depth 0 leaves no depth-1 loop.
	star := planFor(t, g, pattern.StarN(3))
	if star.effectiveIEPK() >= star.N()-1 && star.EdgeParallelEligible(true) {
		t.Error("full-suffix IEP run cannot be edge-parallel")
	}
}
