package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// Edge-case coverage for the execution engine beyond the main
// property-based suite.

func TestSingleEdgePattern(t *testing.T) {
	p := pattern.MustNew(2, [][2]int{{0, 1}}, "edge")
	cfg := mustConfig(t, p, identitySchedule(2), firstSet(t, p, 0))
	checkArms(t, "edge", graph.GNM(100, 321, 5), cfg, 321, table(axes{}, axes{iep: on, workers: []int{2}}))
}

func TestIsolatedVerticesIgnored(t *testing.T) {
	b := graph.NewBuilder(0, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.SetNumVertices(50) // vertices 3..49 isolated
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.Triangle()
	cfg := mustConfig(t, p, identitySchedule(3), firstSet(t, p, 0))
	checkArms(t, "triangle", g, cfg, 1, axes{workers: []int{4}}.arms())
}

func TestBidirectionalRestrictionsOnOneDepth(t *testing.T) {
	// A depth can carry both a lower and an upper bound; the scan window
	// must honor both. Path pattern 0-1-2 with restrictions
	// id(0) > id(2) and id(2) > id(1): at depth 2 (vertex 2), lower bound
	// id(1), upper bound id(0).
	p := pattern.PathN(3)
	rs := restrict.Set{{First: 0, Second: 2}, {First: 2, Second: 1}}
	cfg := mustConfig(t, p, identitySchedule(3), rs)
	g := graph.GNP(20, 0.5, 13)
	// Reference: count injective paths v0-v1-v2 with v0 > v2 > v1.
	var want int64
	n := g.NumVertices()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if b == a || !g.HasEdge(uint32(a), uint32(b)) {
				continue
			}
			for c := 0; c < n; c++ {
				if c == a || c == b || !g.HasEdge(uint32(b), uint32(c)) {
					continue
				}
				if a > c && c > b {
					want++
				}
			}
		}
	}
	checkArms(t, "windowed", g, cfg, want, table(axes{}))
}

func TestBudgetTruncates(t *testing.T) {
	// A short context deadline must abort early and report incompleteness
	// on a workload that otherwise takes much longer.
	g := graph.BarabasiAlbert(30000, 10, 3)
	p := pattern.CliqueMinus(6)
	cfg := firstConfig(t, p, 1)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := cfg.Bind(false, TierAuto).Run(ctx, g, RunOptions{Workers: 2})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine fast enough to finish before the deadline; nothing to assert")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("deadline-bounded run error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline-bounded run took %v, cancellation too coarse", elapsed)
	}
}

func TestBudgetCompleteFlagOnFastRun(t *testing.T) {
	g := graph.Complete(8)
	p := pattern.Triangle()
	cfg := mustConfig(t, p, identitySchedule(3), firstSet(t, p, 0))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	count, err := cfg.Bind(false, TierAuto).Run(ctx, g, RunOptions{Workers: 1})
	if err != nil || count != 56 {
		t.Errorf("fast run: count=%d err=%v", count, err)
	}
}

func TestStarPatternLargeIEPSuffix(t *testing.T) {
	// A star has k = n-1: everything but the hub is independent, so IEP
	// collapses all leaf loops. Verify against the closed form
	// Σ_v C(deg(v), leaves).
	p := pattern.StarN(5) // hub + 4 leaves
	g := graph.BarabasiAlbert(300, 5, 21)
	cfg := planFor(t, g, p)
	var want int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(uint32(v)))
		want += d * (d - 1) * (d - 2) * (d - 3) / 24
	}
	checkArms(t, fmt.Sprintf("4-star (kIEP=%d)", cfg.KIEP()), g, cfg, want, axes{iep: on, workers: []int{2}}.arms())
	if cfg.KIEP() < 2 {
		t.Errorf("star kIEP = %d, expected a deep IEP suffix", cfg.KIEP())
	}
}

func TestCliquePatternsAgainstClosedForm(t *testing.T) {
	// K_m embeddings in K_n = C(n, m).
	g := graph.Complete(10)
	binom := func(n, k int64) int64 {
		r := int64(1)
		for i := int64(0); i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for m := 3; m <= 6; m++ {
		p := pattern.Clique(m)
		res, err := Plan(p, g.Stats(), PlanOptions{MaxRestrictionSets: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkArms(t, fmt.Sprintf("K%d in K10", m), g, res.Best, binom(10, int64(m)), axes{iep: both}.arms())
	}
}

func TestEnumerateEmbeddingIndexing(t *testing.T) {
	// The embedding slice must be indexed by *pattern* vertex even when
	// the schedule permutes aggressively.
	p := pattern.House()
	sres := schedule.Generate(p, schedule.Options{})
	var sched schedule.Schedule
	for _, s := range sres.Efficient {
		if s.Order[0] != 0 { // pick a non-identity-start schedule
			sched = s
			break
		}
	}
	if sched.Order == nil {
		sched = sres.Efficient[len(sres.Efficient)-1]
	}
	cfg := mustConfig(t, p, sched, firstSet(t, p, 0))
	g := graph.GNP(14, 0.6, 99)
	checkArms(t, fmt.Sprintf("schedule %v", sched), g, cfg, baseline.BruteForceCount(g, p), axes{entry: enumerated}.arms())
}
