package core

// Ablation benchmarks for the design choices DESIGN.md calls out: what each
// GraphPi component buys on a fixed workload. Run with
//
//	go test ./internal/core -bench Ablation -benchtime 1x -v

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

func ablationGraph() *graph.Graph { return graph.BarabasiAlbert(8000, 7, 99) }

// BenchmarkAblationRestrictions compares matching with a complete
// restriction set against no symmetry breaking at all (AutoMine's regime:
// |Aut|× redundant work).
func BenchmarkAblationRestrictions(b *testing.B) {
	g := ablationGraph()
	p := pattern.House()
	sres := schedule.Generate(p, schedule.Options{})
	sets, err := restrict.Generate(p, restrict.Options{})
	if err != nil {
		b.Fatal(err)
	}
	withSet, _ := NewConfig(p, sres.Efficient[0], sets[0])
	without, _ := NewConfig(p, sres.Efficient[0], nil)
	b.Run("with-restrictions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			withSet.Bind(false, TierAuto).Count(g, RunOptions{Workers: 1})
		}
	})
	b.Run("no-restrictions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			without.Bind(false, TierAuto).Count(g, RunOptions{Workers: 1})
		}
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
	worstCfg, err := NewConfig(p, worst.Schedule, worst.Restrictions)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("model-selected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.Best.Bind(false, TierAuto).Count(g, RunOptions{Workers: 1})
		}
	})
	b.Run("worst-ranked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			worstCfg.Bind(false, TierAuto).Count(g, RunOptions{Workers: 1})
		}
	})
}

// BenchmarkAblationChunkSize sweeps the task granularity of the parallel
// runtime (paper §IV-E: fine-grained partitioning vs skew).
func BenchmarkAblationChunkSize(b *testing.B) {
	g := ablationGraph()
	cfg := benchPlan(b, g, pattern.House())
	for _, chunk := range []int{1, 16, 256, 4096} {
		b.Run(chunkName(chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Bind(false, TierAuto).Count(g, RunOptions{Workers: 4, ChunkSize: chunk})
			}
		})
	}
}

func chunkName(c int) string {
	switch c {
	case 1:
		return "chunk1"
	case 16:
		return "chunk16"
	case 256:
		return "chunk256"
	default:
		return "chunk4096"
	}
}
