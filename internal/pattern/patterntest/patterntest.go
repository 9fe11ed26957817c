// Package patterntest lists the patterns that the planner's equivalence tests
// sweep, so that every planning layer is checked on the same inputs.
package patterntest

import (
	"fmt"

	"graphpi/internal/pattern"
)

// Named is a pattern with the name tests report it under.
type Named struct {
	Name string
	Pat  *pattern.Pattern
}

// referenceSpecs are p1–p5 of the GraphPi reference implementation's test
// drivers (SNIPPETS.md), in its row-major adjacency format.
var referenceSpecs = []string{
	"4:0111101011011010",
	"6:011110101101110011110000101000011000",
	"6:011111101111110110111000111000110000",
	"6:011110101011110010100001111000010100",
	"7:0111111101111111011001110110111100011010001100000",
}

// Suite returns P1–P6, reference p1–p5, every connected motif on 4 to
// maxMotif vertices and K7 — with maxMotif = 6, the plan-cold workload's 151
// patterns. Enumerating the 6-vertex motifs takes seconds; short tests pass 5.
func Suite(maxMotif int) []Named {
	var out []Named
	for i, p := range pattern.EvaluationPatterns() {
		out = append(out, Named{fmt.Sprintf("P%d", i+1), p})
	}
	for i, spec := range referenceSpecs {
		p, err := pattern.Parse(spec)
		if err != nil {
			panic(err)
		}
		out = append(out, Named{fmt.Sprintf("ref-p%d", i+1), p})
	}
	for n := 4; n <= maxMotif; n++ {
		for i, p := range pattern.AllConnected(n) {
			out = append(out, Named{fmt.Sprintf("motif%d-%d", n, i+1), p})
		}
	}
	return append(out, Named{"k7", pattern.Clique(7)})
}
