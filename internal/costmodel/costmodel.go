// Package costmodel implements GraphPi's performance prediction model
// (paper §IV-C). For a configuration — a schedule plus a restriction set —
// it predicts the relative cost of the generated nested-loop program:
//
//	cost_i = l_i × (1 − f_i) × (o + c_i + cost_{i+1})
//
// where l_i is the candidate-set cardinality of loop i, f_i the probability
// that loop i's restriction filters an iteration, and c_i the intersection
// work hoisted into loop i. Cardinalities derive from three structural
// statistics of the data graph — |V|, |E| and the triangle count — through
// the probabilities
//
//	p1 = 2|E| / |V|²            (two vertices are neighbors)
//	p2 = tri·|V| / (2|E|)²      (two co-neighbors are themselves neighbors)
//
// and the expected cardinality of an intersection of m neighborhoods is
// |V| · p1 · p2^(m−1). The filter probabilities f_i are computed *exactly*:
// they are the fractions of the n! relative magnitude orders of the pattern's
// vertices that the restrictions filter in schedule order, as the paper
// prescribes, counted without enumerating the orders.
package costmodel

import (
	"cmp"
	"math"
	"slices"

	"graphpi/internal/graph"
	"graphpi/internal/perm"
	"graphpi/internal/schedule"
)

// Params carries the data-graph statistics the model consumes.
type Params struct {
	Vertices  float64
	Edges     float64
	Triangles float64
}

// FromStats extracts model parameters from graph statistics.
func FromStats(s graph.Stats) Params {
	return Params{
		Vertices:  float64(s.Vertices),
		Edges:     float64(s.Edges),
		Triangles: float64(s.Triangles),
	}
}

// P1 returns the neighbor probability 2|E|/|V|².
func (p Params) P1() float64 {
	if p.Vertices == 0 {
		return 0
	}
	return 2 * p.Edges / (p.Vertices * p.Vertices)
}

// P2 returns the co-neighbor closure probability tri·|V|/(2|E|)², floored at
// a small epsilon so triangle-free graphs still produce finite rankings.
func (p Params) P2() float64 {
	if p.Edges == 0 {
		return 0
	}
	e2 := 2 * p.Edges
	p2 := p.Triangles * p.Vertices / (e2 * e2)
	if p2 < 1e-9 {
		p2 = 1e-9
	}
	return p2
}

// AvgDegree returns 2|E|/|V|.
func (p Params) AvgDegree() float64 {
	if p.Vertices == 0 {
		return 0
	}
	return 2 * p.Edges / p.Vertices
}

// Breakdown exposes the per-loop factors behind a prediction; drift reports
// (core.Config.PredictedLevels) compare them with a run's counters.
type Breakdown struct {
	LoopSize   []float64 // l_i
	FilterProb []float64 // f_i
	Intersect  []float64 // c_i
	Cost       float64
}

// Model selects between GraphPi's full model and the degree-only,
// restriction-blind approximation used to reproduce the GraphZero baseline.
type Model uint8

const (
	// GraphPi uses triangle-based cardinalities and exact restriction
	// filter probabilities.
	GraphPi Model = iota
	// GraphZeroApprox ignores triangle structure (p2 ≈ p1) and restriction
	// filtering (f_i = 0), approximating the simpler estimator GraphZero
	// inherits from AutoMine. Used only by the baseline reproduction.
	GraphZeroApprox
)

// Estimate predicts the cost of running the compiled plan with the given
// position-space restrictions on a graph with the given parameters.
//
// relabeledRestrictions must be expressed on schedule positions (see
// schedule.MapRestrictions); n is the pattern size.
func Estimate(plan schedule.Plan, n int, posRestrictions [][2]uint8, p Params, model Model) Breakdown {
	b := Breakdown{
		LoopSize:   make([]float64, n),
		FilterProb: make([]float64, n),
		Intersect:  make([]float64, n),
	}
	p2 := p.P2()
	if model == GraphZeroApprox {
		p2 = p.P1()
	}
	setSize := func(m int) float64 {
		if m <= 0 {
			return p.Vertices
		}
		return p.Vertices * p.P1() * math.Pow(p2, float64(m-1))
	}

	for i := 0; i < n; i++ {
		b.LoopSize[i] = setSize(plan.Cand[i].NumParents)
		for _, st := range plan.Steps[i] {
			// Intersecting the (PrefixLen-1)-deep chain with one more
			// neighborhood costs the sum of both cardinalities (paper:
			// c2 = |N(vA)| + |N(vB)|).
			b.Intersect[i] += setSize(st.PrefixLen-1) + setSize(1)
		}
	}

	if model == GraphPi {
		b.FilterProb = FilterProbabilities(n, posRestrictions)
	}

	// cost_n..cost_1 by the paper's recursion, with a unit per-iteration
	// overhead so intersection-free loops still cost their trip count.
	cost := 0.0
	for i := n - 1; i >= 0; i-- {
		iters := b.LoopSize[i] * (1 - b.FilterProb[i])
		if iters < 0 {
			iters = 0
		}
		cost = iters * (1 + b.Intersect[i] + cost)
	}
	b.Cost = cost
	return b
}

// FilterProbabilities computes the exact f_i values: of the n! relative
// magnitude orders of the n bound vertices, f_i is the fraction of those
// surviving loops < i that loop i's restrictions filter (paper §IV-C,
// "Measurement of f_i"). An order survives loops ≤ i exactly when it respects
// the restrictions among positions {0,…,i}, so that number is n!/(i+1)! times
// the count of valid orders of the prefix — which perm.CountOrders yields for
// every prefix in one pass instead of a walk over all n! orders.
func FilterProbabilities(n int, posRestrictions [][2]uint8) []float64 {
	f := make([]float64, n)
	if len(posRestrictions) == 0 {
		return f
	}
	greater := make([]uint16, n)
	for _, r := range posRestrictions {
		greater[r[1]] |= 1 << r[0]
	}
	prefix := make([]int64, n)
	perm.CountOrders(greater, prefix)
	total := perm.Factorial(n)
	surviving := total
	for i := 0; i < n; i++ {
		after := total / perm.Factorial(i+1) * prefix[i]
		if surviving > 0 {
			f[i] = float64(surviving-after) / float64(surviving)
		}
		surviving = after
	}
	return f
}

// RankedConfig pairs a configuration index with its predicted cost; used by
// the planner to order candidate configurations.
type RankedConfig struct {
	ScheduleIdx    int
	RestrictionIdx int
	Cost           float64
}

// Rank estimates every (schedule, restriction-set) combination and returns
// the rankings sorted ascending by predicted cost. plans[i] must be the
// compiled plan of schedules[i]; posRestr[i][j] the position-mapped
// restriction set j under schedule i.
func Rank(plans []schedule.Plan, n int, posRestr [][][][2]uint8, p Params, model Model) []RankedConfig {
	var out []RankedConfig
	for si, plan := range plans {
		for ri, rs := range posRestr[si] {
			b := Estimate(plan, n, rs, p, model)
			out = append(out, RankedConfig{ScheduleIdx: si, RestrictionIdx: ri, Cost: b.Cost})
		}
	}
	// out is built in (schedule, set) order, so a stable sort on cost alone
	// breaks ties by schedule index, then set index.
	slices.SortStableFunc(out, func(a, b RankedConfig) int { return cmp.Compare(a.Cost, b.Cost) })
	return out
}
