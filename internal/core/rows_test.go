package core

import (
	"fmt"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

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
// and each task: |V| tasks of about one root's slots each, and one-slot tasks
// on a Counter, make every root a fresh row over the previous root's, and a
// bit left behind by the previous root would change a count. The row probes
// must have run.
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
	arms := table(
		axes{iep: both, chunk: []int{1}, stats: on},
		axes{entry: counted, iep: both, chunk: []int{1}},
		axes{iep: both, workers: []int{3}, chunk: []int{1}},
		axes{entry: enumerated, strip: []strip{keepMarks, noRows}, chunk: []int{1}},
	)
	for gi, g := range graphs {
		if g.NumHubs() != 0 {
			t.Fatalf("graph %d has hub bitmaps; row probes would not be told apart", gi)
		}
		for _, p := range pats {
			want := baseline.BruteForceCount(g, p)
			cfg := planFor(t, g, p)
			name := fmt.Sprintf("graph %d %s", gi, p)
			for _, iep := range both {
				if rowSteps(cfg.Bind(iep, TierAuto).prog) == 0 {
					t.Fatalf("%s iep=%v: no step probes a row", name, iep)
				}
			}
			for i, r := range checkArms(t, name, g, cfg, want, arms) {
				if r.stats == nil || want == 0 {
					continue
				}
				var probes uint64 // no hubs: every bitmap kernel call is a row probe
				for _, l := range r.stats.Levels {
					probes += l.Kernels[telemetry.KernelBitmap]
				}
				if probes == 0 {
					t.Errorf("%s [%s]: no row probe ran", name, arms[i])
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
	arms := axes{tier: interpreted, iep: both, strip: []strip{keepMarks, noRows}, stats: on}.arms()
	marked := 0
	for _, p := range pats {
		cfg := planFor(t, g, p)
		for _, iep := range both {
			marked += rowSteps(cfg.Bind(iep, TierInterpret).prog)
		}
		want := withoutRows(cfg).Bind(true, TierInterpret).Count(g, RunOptions{Workers: 1})
		checkArms(t, p.String(), g, cfg, want, arms)
	}
	if marked == 0 {
		t.Fatal("no planned configuration probes a row")
	}
}
