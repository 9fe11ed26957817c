package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/telemetry"
)

// withoutMemo returns a copy of c whose lowered nests carry no loop-invariant
// marks, so every step evaluation runs a kernel: the reference the memoised
// executor must reproduce.
func withoutMemo(c *Config) *Config {
	return withSteps(c, func(st *codegen.Step) { st.Memo = nil })
}

// withSteps returns a copy of c whose lowered nests hold copies of c's steps
// passed through edit; c's own nests are left alone.
func withSteps(c *Config, edit func(*codegen.Step)) *Config {
	strip := func(p *codegen.Program) *codegen.Program {
		if p == nil {
			return nil
		}
		s := *p
		s.Levels = append([]codegen.Level(nil), p.Levels...)
		for d := range s.Levels {
			steps := append([]codegen.Step(nil), s.Levels[d].Steps...)
			for i := range steps {
				edit(&steps[i])
			}
			s.Levels[d].Steps = steps
		}
		return &s
	}
	s := *c
	s.progEnum, s.progIEP = strip(c.progEnum), strip(c.progIEP)
	return &s
}

// memoLevels returns the depths holding a loop-invariant step of prog.
func memoLevels(prog *codegen.Program) map[int]bool {
	ds := map[int]bool{}
	for _, lv := range prog.Levels {
		for _, st := range lv.Steps {
			if st.Memo != nil {
				ds[lv.Depth] = true
			}
		}
	}
	return ds
}

// embeddingSum folds every visited embedding into an order-independent
// checksum.
func embeddingSum(c *Config, g *graph.Graph, opt RunOptions) (int64, uint64) {
	var sum atomic.Uint64
	n := c.EnumerateAll(g, opt, func(emb []uint32) bool {
		h := uint64(14695981039346656037)
		for _, v := range emb {
			h = (h ^ uint64(v)) * 1099511628211
		}
		sum.Add(h)
		return true
	})
	return n, sum.Load()
}

func TestMemoMatchesStrippedProgram(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 8, 11).Reorder()
	g.BuildHubBitmaps(0, 0)
	if g.NumHubs() == 0 {
		t.Fatal("fixture has no hub bitmaps")
	}
	refP4, err := pattern.ParseAdjacency(6, "011110101011110010100001111000010100", "ref-p4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p  *pattern.Pattern
		rs restrict.Set
	}{
		{pattern.Cycle6Tri(), restrict.Set{{First: 1, Second: 2}}},
		{refP4, restrict.Set{{First: 0, Second: 1}, {First: 2, Second: 4}}},
	} {
		memo := mustConfig(t, tc.p, identitySchedule(tc.p.N()), tc.rs)
		plain := withoutMemo(memo)
		wantN, wantSum := embeddingSum(plain, g, RunOptions{Workers: 1})
		for _, useIEP := range []bool{false, true} {
			marked := memoLevels(memo.Bind(useIEP, TierAuto).prog)
			if len(marked) == 0 {
				t.Fatalf("%s iep=%v: no loop-invariant step to test", tc.p, useIEP)
			}
			run := func(c *Config, opt RunOptions) int64 {
				return c.Bind(useIEP, TierAuto).Count(g, opt)
			}
			for _, workers := range []int{1, 3} {
				for _, ep := range []EdgeParallelMode{EdgeParallelOff, EdgeParallelOn} {
					name := fmt.Sprintf("%s iep=%v workers=%d edgePar=%d", tc.p, useIEP, workers, ep)
					stM, stP := telemetry.NewRunStats(tc.p.N()), telemetry.NewRunStats(tc.p.N())
					got := run(memo, RunOptions{Workers: workers, EdgeParallel: ep, Stats: stM})
					want := run(plain, RunOptions{Workers: workers, EdgeParallel: ep, Stats: stP})
					if got != want || want != wantN {
						t.Errorf("%s: memo counted %d, stripped %d, stripped enumeration %d", name, got, want, wantN)
					}
					compareMemoStats(t, name, stM, stP, marked)
					if useIEP {
						continue
					}
					n, sum := embeddingSum(memo, g, RunOptions{Workers: workers, EdgeParallel: ep})
					if n != wantN || sum != wantSum {
						t.Errorf("%s: memo enumerated %d (sum %x), stripped %d (sum %x)", name, n, sum, wantN, wantSum)
					}
				}
			}
		}
	}
}

// compareMemoStats checks that the memo changes only how step evaluations
// were served: every counter but Kernels, MemoHits and WallNS is
// bit-identical, each level's kernels and hits sum to its intersections, and
// the marked levels do get hits.
func compareMemoStats(t *testing.T, name string, memo, plain *telemetry.RunStats, marked map[int]bool) {
	t.Helper()
	for d := range memo.Levels {
		m, p := memo.Levels[d], plain.Levels[d]
		var kernels uint64
		for _, k := range m.Kernels {
			kernels += k
		}
		if kernels+m.MemoHits != m.Intersections {
			t.Errorf("%s level %d: kernels %d + memo hits %d != intersections %d", name, d, kernels, m.MemoHits, m.Intersections)
		}
		if marked[d] != (m.MemoHits > 0) {
			t.Errorf("%s level %d: %d memo hits, level marked %v", name, d, m.MemoHits, marked[d])
		}
		if p.MemoHits != 0 {
			t.Errorf("%s level %d: stripped program reports %d memo hits", name, d, p.MemoHits)
		}
		m.Kernels, m.MemoHits, m.WallNS = p.Kernels, p.MemoHits, p.WallNS
		if m != p {
			t.Errorf("%s level %d: memo stats %+v, stripped %+v", name, d, m, p)
		}
	}
}
