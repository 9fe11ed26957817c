package core

// Ablation benchmarks for the design choices DESIGN.md calls out: what each
// GraphPi component buys on a fixed workload. Run with
//
//	go test ./internal/core -bench Ablation -benchtime 1x -v

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

func ablationGraph() *graph.Graph { return graph.BarabasiAlbert(8000, 7, 99) }

// BenchmarkAblationRestrictions compares matching with a complete
// restriction set against no symmetry breaking at all (AutoMine's regime:
// |Aut|× redundant work).
func BenchmarkAblationRestrictions(b *testing.B) {
	g := ablationGraph()
	p := pattern.House()
	withSet := firstConfig(b, p, 0)
	b.Run("with-restrictions", func(b *testing.B) { benchArms(b, g, withSet, table(axes{})) })
	b.Run("no-restrictions", func(b *testing.B) {
		benchArms(b, g, mustConfig(b, p, withSet.Schedule, nil), table(axes{}))
	})
}

// BenchmarkAblationScheduleChoice compares the model-selected schedule with
// the worst efficient schedule (the spread Figure 9 plots).
func BenchmarkAblationScheduleChoice(b *testing.B) {
	g := ablationGraph()
	p := pattern.Cycle6Tri()
	stats := g.Stats()
	res, err := Plan(p, stats, PlanOptions{KeepAll: true})
	if err != nil {
		b.Fatal(err)
	}
	worst := res.Ranked[len(res.Ranked)-1]
	worstCfg := mustConfig(b, p, worst.Schedule, worst.Restrictions)
	b.Run("model-selected", func(b *testing.B) { benchArms(b, g, res.Best, table(axes{})) })
	b.Run("worst-ranked", func(b *testing.B) { benchArms(b, g, worstCfg, table(axes{})) })
}

// BenchmarkAblationChunkSize sweeps the task granularity of the parallel
// runtime (paper §IV-E: fine-grained partitioning vs skew).
func BenchmarkAblationChunkSize(b *testing.B) {
	g := ablationGraph()
	benchArms(b, g, benchPlan(b, g, pattern.House()), axes{workers: []int{4}, chunk: []int{1, 16, 256, 4096}}.arms())
}
