package core

import (
	"fmt"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

// withoutRows returns a copy of c whose lowered nests mark no step with a
// root row, so every step runs the hybrid kernel (vertexset.IntersectWindow):
// binding it is binding c without rows, the reference the row kernel must
// reproduce.
func withoutRows(c *Config) *Config {
	return withSteps(c, func(st *codegen.Step) { st.Row = -1 })
}

// rowSteps counts the steps of prog marked to probe a root row.
func rowSteps(prog *codegen.Program) int {
	n := 0
	for _, lv := range prog.Levels {
		for _, st := range lv.Steps {
			if st.Row >= 0 {
				n++
			}
		}
	}
	return n
}

// bitmapKernels sums the bitmap-kernel calls of every level of st: on a
// graph without hub bitmaps, the row probes.
func bitmapKernels(st *telemetry.RunStats) uint64 {
	var n uint64
	for _, l := range st.Levels {
		n += l.Kernels[telemetry.KernelBitmap]
	}
	return n
}

func snippetPattern(t *testing.T, name, adj string) *pattern.Pattern {
	t.Helper()
	n := 1
	for n*n < len(adj) {
		n++
	}
	p, err := pattern.ParseAdjacency(n, adj, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRowsAgainstBruteForce runs patterns whose steps probe root rows on
// random graphs without hub bitmaps against the brute-force count, counting
// and enumerating. One worker runs every task, so its rows outlive each root
// and each task: one-vertex tasks, and one-slot tasks on a Counter, make
// every root a fresh row over the previous root's, and a bit left behind by
// the previous root would change a count. The row probes must have run.
func TestRowsAgainstBruteForce(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.House(), pattern.Rectangle(), pattern.Cycle6Tri(),
		snippetPattern(t, "ref-p4", "011110101011110010100001111000010100"),
	}
	graphs := []*graph.Graph{
		graph.GNM(32, 150, 1),
		graph.GNM(40, 170, 2).Reorder(),
		graph.BarabasiAlbert(48, 4, 3),
	}
	for gi, g := range graphs {
		if g.NumHubs() != 0 {
			t.Fatalf("graph %d has hub bitmaps; row probes would not be told apart", gi)
		}
		for _, p := range pats {
			want := baseline.BruteForceCount(g, p)
			res, err := Plan(p, g.Stats(), PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := res.Best
			for _, useIEP := range []bool{false, true} {
				b := cfg.Bind(useIEP, TierAuto)
				name := fmt.Sprintf("graph %d %s iep=%v", gi, p, useIEP)
				if rowSteps(b.prog) == 0 {
					t.Fatalf("%s: no step probes a row", name)
				}
				st := telemetry.NewRunStats(p.N())
				if got := b.Count(g, RunOptions{Workers: 1, ChunkSize: 1, EdgeParallel: EdgeParallelOff, Stats: st}); got != want {
					t.Errorf("%s one-vertex tasks: counted %d, brute force %d", name, got, want)
				}
				if want > 0 && bitmapKernels(st) == 0 {
					t.Errorf("%s: no row probe ran", name)
				}
				if b.EdgeParallelEligible() {
					c := NewCounter(b, g, nil)
					for s := 0; s < g.NumAdjSlots(); s++ {
						c.CountEdgeRange(s, s+1)
					}
					if got := b.ScaleIEP(c.Raw()); got != want {
						t.Errorf("%s one-slot tasks: counted %d, brute force %d", name, got, want)
					}
				}
				if got := b.Count(g, RunOptions{Workers: 3, ChunkSize: 1, EdgeParallel: EdgeParallelOn}); got != want {
					t.Errorf("%s three workers, slot tasks: counted %d, brute force %d", name, got, want)
				}
			}
			plain := withoutRows(cfg)
			for _, ep := range []EdgeParallelMode{EdgeParallelOff, EdgeParallelOn} {
				opt := RunOptions{Workers: 1, ChunkSize: 1, EdgeParallel: ep}
				n, sum := embeddingSum(cfg, g, opt)
				pn, psum := embeddingSum(plain, g, opt)
				if n != want || pn != want || sum != psum {
					t.Errorf("graph %d %s edgePar=%d: enumerated %d (sum %x), without rows %d (sum %x), brute force %d",
						gi, p, ep, n, sum, pn, psum, want)
				}
			}
		}
	}
}

// TestRowsCounterIdentity binds the planned configurations of P1–P6 and
// SNIPPETS 1's p1–p5 with and without rows, on the IEP nest and the full
// one: the counts and every per-level counter but the kernel split (and the
// sampled wall time) must be identical — rows change how a step is computed,
// never which steps run or what they return.
func TestRowsCounterIdentity(t *testing.T) {
	g := graph.BarabasiAlbert(400, 4, 17).Reorder()
	g.BuildHubBitmaps(1<<20, 8)
	pats := append(pattern.EvaluationPatterns(),
		snippetPattern(t, "ref-p1", "0111101011011010"),
		snippetPattern(t, "ref-p2", "011110101101110011110000101000011000"),
		snippetPattern(t, "ref-p3", "011111101111110110111000111000110000"),
		snippetPattern(t, "ref-p4", "011110101011110010100001111000010100"),
		snippetPattern(t, "ref-p5", "0111111101111111011001110110111100011010001100000"),
	)
	marked := 0
	for _, p := range pats {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows, plain := res.Best, withoutRows(res.Best)
		for _, useIEP := range []bool{false, true} {
			b := rows.Bind(useIEP, TierInterpret)
			marked += rowSteps(b.prog)
			name := fmt.Sprintf("%s iep=%v", p, useIEP)
			stR, stP := telemetry.NewRunStats(p.N()), telemetry.NewRunStats(p.N())
			got := b.Count(g, RunOptions{Workers: 1, Stats: stR})
			want := plain.Bind(useIEP, TierInterpret).Count(g, RunOptions{Workers: 1, Stats: stP})
			if got != want {
				t.Errorf("%s: counted %d with rows, %d without", name, got, want)
			}
			for d := range stR.Levels {
				r, q := stR.Levels[d], stP.Levels[d]
				r.Kernels, r.WallNS = q.Kernels, q.WallNS
				if r != q {
					t.Errorf("%s level %d: stats with rows %+v, without %+v", name, d, stR.Levels[d], stP.Levels[d])
				}
			}
		}
	}
	if marked == 0 {
		t.Fatal("no planned configuration probes a row")
	}
}
