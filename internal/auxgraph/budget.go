// Package auxgraph is what remains of the removed auxiliary-graph pruning
// layer: a budget helper kept only so that existing callers compile. The
// hub-bitmap budget has one meaning everywhere (graph.BuildHubBitmaps), and
// this package adds nothing to it.
package auxgraph

import "graphpi/internal/graph"

// Split is the outcome of PlanBudget.
type Split struct {
	// HubBytes is the budget for graph.BuildHubBitmaps.
	HubBytes int64
}

// PlanBudget returns the hub-bitmap budget for a total view budget: total
// itself, or graph.DefaultHubBudget when total <= 0. The remaining arguments
// are ignored.
//
// Deprecated: pass the budget to graph.BuildHubBitmaps directly.
func PlanBudget(total int64, n, workers, deepSteps int) Split {
	if total <= 0 {
		total = graph.DefaultHubBudget
	}
	return Split{HubBytes: total}
}
