// Package gen holds the go:generate'd static counting kernels for the
// clique suite K3..K12 — the engine's third execution tier (see
// internal/core.Tier). Each kernel counts cliques under the fixed descending
// total order v0 > v1 > ... > v_{q-1}; internal/core substitutes a kernel
// only when the planned configuration is a complete pattern whose
// restriction windows form a total order, under which every clique passes
// exactly one vertex ordering — so the fixed order tallies the same count.
//
// The kernel sources k3.go..k12.go are checked in and regenerated with
// `go generate ./internal/codegen/gen` (see regen). CI verifies the
// checked-in sources match the emitter.
package gen

//go:generate go run ./regen

import (
	"sync/atomic"

	"graphpi/internal/graph"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// MinPattern and MaxPattern bound the clique sizes the suite covers.
const (
	MinPattern = 3
	MaxPattern = 12
)

// RangeKernel counts pattern instances rooted in a task range: a vertex
// range for the plain kernels, a CSR adjacency-slot range for the edge
// variants. The stop flag is probed at outer-loop boundaries, matching the
// interpreter's cancellation granularity.
type RangeKernel func(g *graph.Graph, start, end int, stop *atomic.Bool) int64

// CliqueRange returns the vertex-parallel kernel counting K_q, if the suite
// has one.
func CliqueRange(q int) (RangeKernel, bool) {
	switch q {
	case 3:
		return countK3, true
	case 4:
		return countK4, true
	case 5:
		return countK5, true
	case 6:
		return countK6, true
	case 7:
		return countK7, true
	case 8:
		return countK8, true
	case 9:
		return countK9, true
	case 10:
		return countK10, true
	case 11:
		return countK11, true
	case 12:
		return countK12, true
	}
	return nil, false
}

// CliqueEdgeRange returns the edge-parallel kernel counting K_q over an
// adjacency-slot range, if the suite has one.
func CliqueEdgeRange(q int) (RangeKernel, bool) {
	switch q {
	case 3:
		return countK3Edges, true
	case 4:
		return countK4Edges, true
	case 5:
		return countK5Edges, true
	case 6:
		return countK6Edges, true
	case 7:
		return countK7Edges, true
	case 8:
		return countK8Edges, true
	case 9:
		return countK9Edges, true
	case 10:
		return countK10Edges, true
	case 11:
		return countK11Edges, true
	case 12:
		return countK12Edges, true
	}
	return nil, false
}

// StatsRangeKernel is a RangeKernel that also records per-level telemetry
// into st, which must be non-nil with at least q levels. The traversal and
// the returned count are bit-identical to the plain kernel's; the plain
// kernels stay untouched so disabled runs pay nothing.
type StatsRangeKernel func(g *graph.Graph, start, end int, stop *atomic.Bool, st *telemetry.RunStats) int64

// CliqueRangeStats returns the telemetry-recording vertex-parallel kernel
// counting K_q, if the suite has one.
func CliqueRangeStats(q int) (StatsRangeKernel, bool) {
	switch q {
	case 3:
		return countK3Stats, true
	case 4:
		return countK4Stats, true
	case 5:
		return countK5Stats, true
	case 6:
		return countK6Stats, true
	case 7:
		return countK7Stats, true
	case 8:
		return countK8Stats, true
	case 9:
		return countK9Stats, true
	case 10:
		return countK10Stats, true
	case 11:
		return countK11Stats, true
	case 12:
		return countK12Stats, true
	}
	return nil, false
}

// CliqueEdgeRangeStats returns the telemetry-recording edge-parallel kernel
// counting K_q, if the suite has one.
func CliqueEdgeRangeStats(q int) (StatsRangeKernel, bool) {
	switch q {
	case 3:
		return countK3EdgesStats, true
	case 4:
		return countK4EdgesStats, true
	case 5:
		return countK5EdgesStats, true
	case 6:
		return countK6EdgesStats, true
	case 7:
		return countK7EdgesStats, true
	case 8:
		return countK8EdgesStats, true
	case 9:
		return countK9EdgesStats, true
	case 10:
		return countK10EdgesStats, true
	case 11:
		return countK11EdgesStats, true
	case 12:
		return countK12EdgesStats, true
	}
	return nil, false
}

// cliqueStep narrows one clique level: dst = {u ∈ left : u ∈ N(v), u < v}.
// Because left already holds vertices below every earlier bound vertex of
// the descending chain, the result is exactly the next level's candidate
// set. Hub vertices are probed through their bitmap in O(|left|).
func cliqueStep(dst, left []uint32, g *graph.Graph, v uint32) []uint32 {
	left = vertexset.Below(left, v)
	right := g.Neighbors(v)
	if bm := g.HubBitmap(v); bm != nil && len(left) <= len(right) {
		return vertexset.IntersectBitmap(dst[:0], left, bm)
	}
	return vertexset.Intersect(dst, left, vertexset.Below(right, v))
}

// cliqueStepStats is cliqueStep with telemetry: the intersection is
// attributed to the kernel family actually dispatched. Trimming an operand
// inside a step is not a prune in any tier — LevelStats.Prunes counts what a
// scan's own window removes from a materialised candidate set, and a bounded
// step never materialises what it trims. Results are bit-identical.
func cliqueStepStats(dst, left []uint32, g *graph.Graph, v uint32, lst *telemetry.LevelStats) []uint32 {
	nl := vertexset.Below(left, v)
	right := g.Neighbors(v)
	if bm := g.HubBitmap(v); bm != nil && len(nl) <= len(right) {
		lst.Intersect(telemetry.KernelBitmap)
		return vertexset.IntersectBitmap(dst[:0], nl, bm)
	}
	right = vertexset.Below(right, v)
	lst.Intersect(telemetry.ClassifyIntersect(len(nl), len(right), vertexset.GallopRatio))
	return vertexset.Intersect(dst, nl, right)
}
