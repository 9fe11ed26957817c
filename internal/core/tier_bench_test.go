package core

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// BenchmarkTiers compares the two executors single-core on the skewed
// hybrid fixture, in a form `go test -bench` and pprof can chew on. The k5
// and k6 arms are the clique kernel's: one level of row builds, then two and
// three levels of word ANDs.
func BenchmarkTiers(b *testing.B) {
	g := graph.BarabasiAlbert(12000, 5, 4242).Reorder()
	g.BuildHubBitmaps(0, 0)
	pats := []struct {
		name string
		p    *pattern.Pattern
	}{
		{"house", pattern.House()},
		{"pentagon", pattern.Pentagon()},
		{"k5", pattern.Clique(5)},
		{"k6", pattern.Clique(6)},
	}
	for _, pc := range pats {
		res, err := Plan(pc.p, g.Stats(), PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pc.name, func(b *testing.B) {
			benchArms(b, g, res.Best, axes{tier: []Tier{TierInterpret, TierGenerated}, iep: on}.arms())
		})
	}
}
