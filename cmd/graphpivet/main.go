// Command graphpivet is graphpi's project-specific static-analysis suite: a
// vet tool that machine-checks the engine's correctness invariants — wire
// constants fully plumbed, mutex annotations honored, count paths
// deterministic, contexts threaded, IO errors handled. Run it through the
// standard build machinery so results are cached per package:
//
//	go build -o bin/graphpivet ./cmd/graphpivet
//	go vet -vettool=$PWD/bin/graphpivet ./...
//
// Individual analyzers can be selected vet-style:
//
//	go vet -vettool=$PWD/bin/graphpivet -wirecheck ./internal/cluster
//
// See DESIGN.md §8 for the checked invariants and the annotation
// conventions (`// guarded by <mu>`, `//graphpi:deterministic`,
// `//graphpivet:ignore`).
package main

import (
	"graphpi/internal/analysis"
	"graphpi/internal/analysis/ctxflow"
	"graphpi/internal/analysis/determinism"
	"graphpi/internal/analysis/ioerr"
	"graphpi/internal/analysis/lockcheck"
	"graphpi/internal/analysis/wirecheck"
)

func main() {
	analysis.Main(
		wirecheck.Analyzer,
		lockcheck.Analyzer,
		determinism.Analyzer,
		ctxflow.Analyzer,
		ioerr.Analyzer,
	)
}
