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
			benchArms(b, g, cfg, axes{iep: both, workers: []int{8}}.arms())
		})
	}
}

// BenchmarkSeedVsHybrid is the end-to-end comparison of the graph layouts:
// original ids without bitmaps against the hybrid engine's degree-ordered,
// bitmap-backed graph, both on the engine's own root tasks.
func BenchmarkSeedVsHybrid(b *testing.B) {
	orig := skewedGraph(b)
	hyb := orig.Reorder()
	hyb.BuildHubBitmaps(64<<20, 0)
	for _, pat := range []*pattern.Pattern{pattern.Triangle(), pattern.House()} {
		cfg := benchConfig(b, orig, pat)
		b.Run(pat.Name()+"/seed", func(b *testing.B) {
			benchArms(b, orig, cfg, axes{workers: []int{8}}.arms())
		})
		b.Run(pat.Name()+"/hybrid", func(b *testing.B) {
			benchArms(b, hyb, cfg, axes{workers: []int{8}}.arms())
		})
	}
}
