package core

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
)

// TestMemoMatchesStrippedProgram runs two configurations with loop-invariant
// steps, on a degree-ordered graph with hub bitmaps, with their memo marks
// and stripped of them: per (nest, workers) cell both count the
// same and book the same counters but for the kernel split and the memo hits
// (the stripped reference stays per cell: counters differ between cells at
// levels 0–1), every marked level gets hits, and the memoised enumerations
// find the stripped one's subgraphs.
func TestMemoMatchesStrippedProgram(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 8, 11).Reorder()
	g.BuildHubBitmaps(0, 0)
	if g.NumHubs() == 0 {
		t.Fatal("fixture has no hub bitmaps")
	}
	arms := table(
		axes{entry: enumerated, strip: []strip{noMemo}, workers: []int{3}},
		axes{iep: both, workers: []int{1, 3}, strip: []strip{noMemo, keepMarks}, stats: on},
		axes{entry: enumerated, workers: []int{1, 3}},
	)
	for _, tc := range []struct {
		p  *pattern.Pattern
		rs restrict.Set
	}{
		{pattern.Cycle6Tri(), restrict.Set{{First: 1, Second: 2}}},
		{snippetPattern(t, "ref-p4", "011110101011110010100001111000010100"), restrict.Set{{First: 0, Second: 1}, {First: 2, Second: 4}}},
	} {
		memo := mustConfig(t, tc.p, identitySchedule(tc.p.N()), tc.rs)
		for _, iep := range both {
			if len(memoLevels(memo.Bind(iep, TierAuto).prog)) == 0 {
				t.Fatalf("%s iep=%v: no loop-invariant step to test", tc.p, iep)
			}
		}
		want := withoutMemo(memo).Bind(true, TierInterpret).Count(g, RunOptions{Workers: 1})
		for i, r := range checkArms(t, tc.p.String(), g, memo, want, arms) {
			a := arms[i]
			if r.stats == nil || a.strip == noMemo {
				continue
			}
			marked := memoLevels(memo.Bind(a.iep, a.tier).prog)
			for d, l := range r.stats.Levels {
				if marked[d] && l.MemoHits == 0 {
					t.Errorf("%s [%s] level %d: marked, but no memo hit", tc.p, a, d)
				}
			}
		}
	}
}
