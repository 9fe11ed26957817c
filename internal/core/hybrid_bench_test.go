package core

import (
	"sort"
	"sync"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// skewedGraph builds the benchmark fixture of the hybrid engine: a power-law
// graph whose top hub degree is >= 100x the median degree, the regime where
// scalar merges pay O(hub degree) per intersection.
var skewedOnce sync.Once
var skewedG *graph.Graph

func skewedGraph(b *testing.B) *graph.Graph {
	skewedOnce.Do(func() {
		skewedG = graph.BarabasiAlbert(60000, 6, 31)
	})
	if b != nil {
		requireSkew(b, skewedG)
	}
	return skewedG
}

// requireSkew verifies the ISSUE's skew claim: hub degree >= 100x median.
func requireSkew(b *testing.B, g *graph.Graph) {
	b.Helper()
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.Degree(uint32(v))
	}
	sort.Ints(degs)
	median := degs[len(degs)/2]
	if g.MaxDegree() < 100*median {
		b.Fatalf("fixture not skewed enough: max degree %d, median %d",
			g.MaxDegree(), median)
	}
}

func benchConfig(b *testing.B, g *graph.Graph, pat *pattern.Pattern) *Config {
	b.Helper()
	res, err := Plan(pat, g.Stats(), PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res.Best
}

// BenchmarkRootScheduling compares vertex-chunked against edge-parallel
// outer loops on the extreme-skew star+ring fixture (tentpole layer 3): the
// hub root owns essentially all the work, so its vertex chunk is a 100%
// straggler while the edge sweep bounds every task at chunk/degree(hub)
// (see TestEdgeParallelBalance for the hardware-independent shares). The
// wall-clock gap here requires multiple physical cores; on a single-core
// host the two disciplines tie.
func BenchmarkRootScheduling(b *testing.B) {
	g := starRingGraph(100000)
	requireSkew(b, g)
	cfg := hubRootTriangle(b)
	for _, bc := range []struct {
		name string
		mode EdgeParallelMode
	}{
		{"vertex-chunked", EdgeParallelOff},
		{"edge-parallel", EdgeParallelOn},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opt := RunOptions{Workers: 8, EdgeParallel: bc.mode}
			var n int64
			for i := 0; i < b.N; i++ {
				n = cfg.Bind(false, TierAuto).Count(g, opt)
			}
			_ = n
		})
	}
}

// BenchmarkHubBitmaps compares the scalar-only engine against the
// bitmap-backed one on the degree-ordered graph (tentpole layers 1+2), for
// both enumeration and IEP counting.
func BenchmarkHubBitmaps(b *testing.B) {
	g := skewedGraph(b).Reorder()
	cfg := benchConfig(b, g, pattern.House())
	run := func(b *testing.B, iep bool) {
		opt := RunOptions{Workers: 8, EdgeParallel: EdgeParallelOff}
		bound := cfg.Bind(iep, TierAuto)
		for i := 0; i < b.N; i++ {
			bound.Count(g, opt)
		}
	}
	b.Run("scalar/count", func(b *testing.B) {
		g.BuildHubBitmaps(1, 0) // budget too small for any bitmap
		run(b, false)
	})
	b.Run("bitmap/count", func(b *testing.B) {
		g.BuildHubBitmaps(64<<20, 0)
		run(b, false)
	})
	b.Run("scalar/iep", func(b *testing.B) {
		g.BuildHubBitmaps(1, 0)
		run(b, true)
	})
	b.Run("bitmap/iep", func(b *testing.B) {
		g.BuildHubBitmaps(64<<20, 0)
		run(b, true)
	})
}

// BenchmarkSeedVsHybrid is the end-to-end comparison recorded in the PR:
// the seed path (original ids, no bitmaps, vertex-chunked roots) against the
// full hybrid engine (degree-ordered, bitmaps, edge-parallel roots).
func BenchmarkSeedVsHybrid(b *testing.B) {
	orig := skewedGraph(b)
	hyb := orig.Reorder()
	hyb.BuildHubBitmaps(64<<20, 0)
	for _, pat := range []*pattern.Pattern{pattern.Triangle(), pattern.House()} {
		cfg := benchConfig(b, orig, pat)
		b.Run(pat.Name()+"/seed", func(b *testing.B) {
			opt := RunOptions{Workers: 8, EdgeParallel: EdgeParallelOff}
			for i := 0; i < b.N; i++ {
				cfg.Bind(false, TierAuto).Count(orig, opt)
			}
		})
		b.Run(pat.Name()+"/hybrid", func(b *testing.B) {
			opt := RunOptions{Workers: 8, EdgeParallel: EdgeParallelOn}
			for i := 0; i < b.N; i++ {
				cfg.Bind(false, TierAuto).Count(hyb, opt)
			}
		})
	}
}
