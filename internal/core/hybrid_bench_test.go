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
	benchArms(b, g, hubRootTriangle(b), axes{workers: []int{8}, shape: forcedShapes}.arms())
}

// BenchmarkHubBitmaps compares the scalar-only engine against the
// bitmap-backed one on the degree-ordered graph (tentpole layers 1+2), for
// both enumeration and IEP counting.
func BenchmarkHubBitmaps(b *testing.B) {
	g := skewedGraph(b).Reorder()
	cfg := benchConfig(b, g, pattern.House())
	for _, hubs := range []struct {
		name   string
		budget int64
	}{{"scalar", 1}, {"bitmap", 64 << 20}} { // 1 byte: too small for any bitmap
		b.Run(hubs.name, func(b *testing.B) {
			g.BuildHubBitmaps(hubs.budget, 0)
			benchArms(b, g, cfg, axes{iep: both, workers: []int{8}, shape: vertexTasks}.arms())
		})
	}
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
			benchArms(b, orig, cfg, axes{workers: []int{8}, shape: vertexTasks}.arms())
		})
		b.Run(pat.Name()+"/hybrid", func(b *testing.B) {
			benchArms(b, hyb, cfg, axes{workers: []int{8}, shape: slotTasks}.arms())
		})
	}
}
