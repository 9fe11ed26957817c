package core

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

func benchPlan(b *testing.B, g *graph.Graph, p *pattern.Pattern) *Config {
	b.Helper()
	res, err := Plan(p, g.Stats(), PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res.Best
}

// BenchmarkCountTriangle measures the core counting kernel on a skewed
// social-style graph.
func BenchmarkCountTriangle(b *testing.B) {
	g := graph.BarabasiAlbert(20000, 8, 7)
	benchArms(b, g, benchPlan(b, g, pattern.Triangle()), table(axes{}))
}

// BenchmarkCountHouse measures a 5-vertex pattern end to end.
func BenchmarkCountHouse(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 6, 7)
	benchArms(b, g, benchPlan(b, g, pattern.House()), table(axes{}))
}

// BenchmarkCountHouseIEP isolates the IEP counting gain on the same
// workload as BenchmarkCountHouse.
func BenchmarkCountHouseIEP(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 6, 7)
	benchArms(b, g, benchPlan(b, g, pattern.House()), axes{iep: on}.arms())
}

// BenchmarkCountParallel measures multi-worker scaling of the runtime.
func BenchmarkCountParallel(b *testing.B) {
	g := graph.BarabasiAlbert(20000, 8, 7)
	benchArms(b, g, benchPlan(b, g, pattern.House()), axes{iep: on, workers: []int{0}}.arms())
}

// BenchmarkPlan measures cold preprocessing (Table III regime): a fresh
// Pattern per iteration, so nothing memoised on it carries over. The CPU
// profile of the planner is
//
//	go test ./internal/core -run '^$' -bench Plan -cpuprofile cpu.out
func BenchmarkPlan(b *testing.B) {
	stats := graph.BarabasiAlbert(2000, 6, 7).Stats()
	for _, c := range []struct {
		name string
		pat  func() *pattern.Pattern
	}{
		{"house", pattern.House},
		{"k7e", func() *pattern.Pattern { return pattern.CliqueMinus(7) }}, // P6, the heaviest evaluation pattern
		{"p5", pattern.P5},
		{"k7", func() *pattern.Pattern { return pattern.Clique(7) }},
		{"prism", pattern.Prism},
		{"k8", func() *pattern.Pattern { return pattern.Clique(8) }},                // the order table's largest degree
		{"k45", func() *pattern.Pattern { return pattern.CompleteBipartite(4, 5) }}, // 9 vertices: no order table
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Plan(c.pat(), stats, PlanOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
