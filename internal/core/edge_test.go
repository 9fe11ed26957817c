package core

import (
	"context"
	"testing"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// Edge-case coverage for the execution engine beyond the main
// property-based suite.

func TestSingleEdgePattern(t *testing.T) {
	p := pattern.MustNew(2, [][2]int{{0, 1}}, "edge")
	sets, err := restrict.Generate(p, restrict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t, p, identitySchedule(2), sets[0])
	g := graph.GNM(100, 321, 5)
	if got := cfg.Count(g, RunOptions{Workers: 1}); got != 321 {
		t.Errorf("edge count = %d, want 321", got)
	}
	if got := cfg.CountIEP(g, RunOptions{Workers: 2}); got != 321 {
		t.Errorf("edge IEP count = %d, want 321", got)
	}
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
	sets, _ := restrict.Generate(p, restrict.Options{})
	cfg := mustConfig(t, p, identitySchedule(3), sets[0])
	if got := cfg.Count(g, RunOptions{Workers: 4}); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
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
	got := cfg.Count(g, RunOptions{Workers: 1})
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
	if got != want {
		t.Errorf("windowed count = %d, want %d", got, want)
	}
}

func TestBudgetTruncates(t *testing.T) {
	// A zero-ish budget must abort early and report incompleteness on a
	// workload that otherwise takes much longer.
	g := graph.BarabasiAlbert(30000, 10, 3)
	p := pattern.CliqueMinus(6)
	sres := schedule.Generate(p, schedule.Options{})
	sets, _ := restrict.Generate(p, restrict.Options{MaxSets: 1})
	cfg := mustConfig(t, p, sres.Efficient[0], sets[0])
	start := time.Now()
	_, err := cfg.CountCtx(context.Background(), g, RunOptions{Workers: 2, Budget: 30 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine fast enough to finish under budget; nothing to assert")
	}
	if err != ErrBudgetExceeded {
		t.Fatalf("budgeted run error = %v, want ErrBudgetExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("budgeted run took %v, cancellation too coarse", elapsed)
	}
}

func TestBudgetCompleteFlagOnFastRun(t *testing.T) {
	g := graph.Complete(8)
	p := pattern.Triangle()
	sets, _ := restrict.Generate(p, restrict.Options{})
	cfg := mustConfig(t, p, identitySchedule(3), sets[0])
	count, err := cfg.CountCtx(context.Background(), g, RunOptions{Workers: 1, Budget: time.Minute})
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
	res, err := Plan(p, g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Best.CountIEP(g, RunOptions{Workers: 2})
	var want int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(uint32(v)))
		want += d * (d - 1) * (d - 2) * (d - 3) / 24
	}
	if got != want {
		t.Errorf("4-star count = %d, want %d (kIEP=%d)", got, want, res.Best.KIEP())
	}
	if res.Best.KIEP() < 2 {
		t.Errorf("star kIEP = %d, expected a deep IEP suffix", res.Best.KIEP())
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
		want := binom(10, int64(m))
		if got := res.Best.Count(g, RunOptions{Workers: 1}); got != want {
			t.Errorf("K%d in K10: %d, want %d", m, got, want)
		}
		if got := res.Best.CountIEP(g, RunOptions{Workers: 1}); got != want {
			t.Errorf("K%d in K10 (IEP): %d, want %d", m, got, want)
		}
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
	sets, _ := restrict.Generate(p, restrict.Options{})
	cfg := mustConfig(t, p, sched, sets[0])
	g := graph.GNP(14, 0.6, 99)
	cfg.Enumerate(g, RunOptions{Workers: 1}, func(emb []uint32) bool {
		for u := 0; u < p.N(); u++ {
			for v := u + 1; v < p.N(); v++ {
				if p.HasEdge(u, v) && !g.HasEdge(emb[u], emb[v]) {
					t.Fatalf("schedule %v: embedding %v violates pattern edge {%d,%d}",
						sched, emb, u, v)
				}
			}
		}
		return true
	})
}
