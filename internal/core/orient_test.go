package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/costmodel"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/restrict"
	"graphpi/internal/telemetry"
)

// TestMirrorIsExactAndCostsTheSame checks the premise of the orientation
// step on every planned set of the planner suite: the mirror is a valid
// complete set with the same IEP constants and a bit-identical Eq. 6/7
// prediction, and on a degree-ordered graph both orientations count and
// enumerate exactly the subgraphs the brute-force oracle finds.
func TestMirrorIsExactAndCostsTheSame(t *testing.T) {
	g := graph.GNM(22, 90, 3).Reorder()
	for _, tc := range patterntest.Suite(5) {
		cfg := planFor(t, g, tc.Pat)
		m, err := cfg.Mirror()
		if err != nil {
			t.Fatalf("%s: mirror: %v", tc.Name, err)
		}
		if err := restrict.Validate(tc.Pat, m.Restrictions); err != nil {
			t.Errorf("%s: mirror %v: %v", tc.Name, m.Restrictions, err)
		}
		if m.KIEP() != cfg.KIEP() || m.IEPNumerator() != cfg.IEPNumerator() || m.IEPDivisor() != cfg.IEPDivisor() {
			t.Errorf("%s: mirror IEP k=%d %d/%d, planned k=%d %d/%d", tc.Name,
				m.KIEP(), m.IEPNumerator(), m.IEPDivisor(), cfg.KIEP(), cfg.IEPNumerator(), cfg.IEPDivisor())
		}
		cost := costmodel.Estimate(m.PlanView(), m.N(), m.PosRestrictions(), *cfg.planParams, costmodel.GraphPi).Cost
		if math.Float64bits(cost) != math.Float64bits(cfg.Cost) {
			t.Errorf("%s: mirror predicted cost %v, planned %v", tc.Name, cost, cfg.Cost)
		}

		want := baseline.BruteForceCount(g, tc.Pat)
		checkArms(t, tc.Name, g, cfg, want, axes{tier: interpreted, iep: both, mirror: both, workers: []int{2}}.arms())
		var sets [2][]string
		for i, c := range []*Config{cfg, m} {
			sets[i] = enumeratedSubgraphs(c, g, tc.Pat)
			if int64(len(sets[i])) != want {
				t.Errorf("%s %v: enumerated %d distinct subgraphs, brute force %d", tc.Name, c.Restrictions, len(sets[i]), want)
			}
		}
		if !slices.Equal(sets[0], sets[1]) {
			t.Errorf("%s: the two orientations enumerate different subgraphs", tc.Name)
		}
	}
}

// enumeratedSubgraphs enumerates c on g and returns the distinct subgraphs
// found, sorted, each keyed by the image of the pattern's edges: two
// embeddings share a key exactly when an automorphism relates them.
func enumeratedSubgraphs(c *Config, g *graph.Graph, pat *pattern.Pattern) []string {
	var mu sync.Mutex
	seen := map[string]bool{}
	c.EnumerateAll(g, RunOptions{Workers: 2}, func(emb []uint32) bool {
		var edges [][2]uint32
		for _, e := range pat.Edges() {
			a, b := emb[e[0]], emb[e[1]]
			edges = append(edges, [2]uint32{min(a, b), max(a, b)})
		}
		slices.SortFunc(edges, func(x, y [2]uint32) int {
			return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
		})
		key := fmt.Sprint(edges)
		mu.Lock()
		seen[key] = true
		mu.Unlock()
		return true
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestOrientationDecision pins the orientation step's choices on a
// degree-ordered BA graph, by candidate counters rather than time: Rectangle
// is mirrored (the planned set centres its depth-2 wedge on a hub), House and
// reference p4 keep core.Plan's set at a decisive depth, Cycle6Tri keeps it
// for want of a 2× gap. Where a depth decided, a full run's RunStats must
// show the chosen orientation scanning at most half the other's candidates
// there, and the probe's totals must be exactly those counters. The decision
// does not depend on the probe's worker count. A graph that is not
// degree-ordered is never probed.
func TestOrientationDecision(t *testing.T) {
	base := graph.BarabasiAlbert(2000, 8, 4242)
	g := base.Reorder()
	g.BuildHubBitmaps(0, 0)
	refP4, err := pattern.Parse("6:011110101011110010100001111000010100")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		pat      *pattern.Pattern
		mirrored bool
		decided  bool
	}{
		{"rectangle", pattern.Rectangle(), true, true},
		{"house", pattern.House(), false, true},
		{"ref-p4", refP4, false, true},
		{"cycle6tri", pattern.Cycle6Tri(), false, false},
	}
	for _, tc := range cases {
		planned := planFor(t, g, tc.pat)
		chosen, o, err := planned.Orient(g, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, serial, _ := planned.Orient(g, 1); serial != o {
			t.Errorf("%s: one worker decided %s, two workers %s", tc.name, serial, o)
		}
		t.Logf("%s %v: %s", tc.name, planned.Restrictions, o)
		if !o.Probed || o.Capped || o.Mirrored != tc.mirrored || (o.Depth > 0) != tc.decided {
			t.Errorf("%s: orientation %s, want mirrored=%v decided=%v", tc.name, o, tc.mirrored, tc.decided)
			continue
		}
		if !tc.mirrored && chosen != planned {
			t.Errorf("%s: kept orientation returned a different configuration %v", tc.name, chosen.Restrictions)
		}
		if o.Depth == 0 {
			continue
		}
		m, err := planned.Mirror()
		if err != nil {
			t.Fatal(err)
		}
		candidates := func(c *Config) uint64 {
			st := telemetry.NewRunStats(c.N())
			c.Bind(true, TierInterpret).Count(g, RunOptions{Workers: 2, Stats: st})
			return st.Levels[o.Depth].Candidates
		}
		plannedN, mirrorN := candidates(planned), candidates(m)
		if plannedN != o.Planned || mirrorN != o.Mirror {
			t.Errorf("%s: depth %d candidates planned %d, mirror %d; the probe counted %d, %d",
				tc.name, o.Depth, plannedN, mirrorN, o.Planned, o.Mirror)
		}
		chosenN, otherN := plannedN, mirrorN
		if o.Mirrored {
			chosenN, otherN = mirrorN, plannedN
		}
		if 2*chosenN > otherN {
			t.Errorf("%s: chosen orientation scans %d candidates at depth %d, the other %d: not a 2x gap",
				tc.name, chosenN, o.Depth, otherN)
		}
	}

	planned := planFor(t, base, pattern.Rectangle())
	if c, o, err := planned.Orient(base, 2); err != nil || c != planned || o.Probed {
		t.Errorf("graph not degree-ordered: orientation %s (err %v), want the planned configuration unprobed", o, err)
	}
}

// TestOrientProbeCap: a probe pass is capped exactly when the candidates it
// binds above the cut level exceed the limit, whatever the worker count and
// however early the cap stopped the run.
func TestOrientProbeCap(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 8, 4242).Reorder()
	cfg := planFor(t, g, pattern.House())
	const depth = 2
	totals, ok := cfg.probe(g, depth, 1, math.MaxUint64)
	if !ok {
		t.Fatal("uncapped probe reported capped")
	}
	bound := totals[1] // candidates bound above depth 2
	for _, workers := range []int{1, 3} {
		if _, ok := cfg.probe(g, depth, workers, bound); !ok {
			t.Errorf("%d workers: probe binding exactly the limit (%d) was capped", workers, bound)
		}
		if _, ok := cfg.probe(g, depth, workers, bound-1); ok {
			t.Errorf("%d workers: probe binding %d candidates passed a limit of %d", workers, bound, bound-1)
		}
		if _, ok := cfg.probe(g, depth, workers, bound/100); ok {
			t.Errorf("%d workers: probe binding %d candidates passed a limit of %d", workers, bound, bound/100)
		}
	}
}
