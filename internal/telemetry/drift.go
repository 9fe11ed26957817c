package telemetry

import "math"

// Cost-model drift: the reconciliation of the planner's per-level
// predictions (costmodel.Estimate's Breakdown — the paper's Eq. 6/7 loop
// sizes and filter probabilities) against the counters a run actually
// accumulated. This is the empirical check on the thesis that the Eq.-based
// model ranks configurations correctly: a level whose actual/predicted
// intersection ratio strays far from its siblings' is where the model
// mispredicts on this graph.

// PredictedLevels carries the model's per-level factors in the neutral form
// the drift builder consumes (the engine maps costmodel.Breakdown into it,
// keeping this package dependency-free).
type PredictedLevels struct {
	// LoopSize is l_i, the expected candidate-set cardinality of loop i.
	LoopSize []float64
	// FilterProb is f_i, the probability loop i's restrictions filter an
	// iteration.
	FilterProb []float64
	// Steps is the number of intersections hoisted to level i.
	Steps []int
	// IEPCut is the level whose iterations evaluate the IEP suffix in
	// closed form (-1 when the run enumerates every level). Levels beyond
	// the cut never iterate, so they carry no actual counters.
	IEPCut int
	// Cost is the model's total predicted cost for the configuration.
	Cost float64
}

// LevelDrift reconciles one schedule level.
type LevelDrift struct {
	Level int `json:"level"`
	// PredictedIters is the expected number of surviving iterations of this
	// loop over the whole run: Π_{j≤i} l_j·(1−f_j).
	PredictedIters float64 `json:"predictedIters"`
	// PredictedCandidates is the expected number of candidates scanned:
	// (iterations of the enclosing loop) × l_i.
	PredictedCandidates float64 `json:"predictedCandidates"`
	// PredictedIntersections is the expected intersection count hoisted to
	// this level: iterations × steps.
	PredictedIntersections float64 `json:"predictedIntersections"`
	// Actual counters, copied from the run's LevelStats.
	ActualIters         uint64 `json:"actualIters"`
	ActualCandidates    uint64 `json:"actualCandidates"`
	ActualIntersections uint64 `json:"actualIntersections"`
	// Ratio is actual/predicted over the level's dominant quantity —
	// intersections when the level hoists any, candidates otherwise. NaN is
	// reported as 0 with Valid=false (a level predicted at zero).
	Ratio float64 `json:"ratio"`
	Valid bool    `json:"valid"`
	// CoveredByIEP marks levels the IEP suffix evaluates in closed form:
	// no per-iteration counters exist, so no ratio is computed.
	CoveredByIEP bool `json:"coveredByIEP,omitempty"`
}

// DriftReport is the run-level reconciliation.
type DriftReport struct {
	Levels []LevelDrift `json:"levels"`
	// PredictedCost is the model's total cost for the configuration.
	PredictedCost float64 `json:"predictedCost"`
	// TotalPredicted / TotalActual aggregate intersections over the
	// enumerated levels; OverallRatio is their quotient.
	TotalPredicted float64 `json:"totalPredictedIntersections"`
	TotalActual    uint64  `json:"totalActualIntersections"`
	OverallRatio   float64 `json:"overallRatio"`
}

// BuildDrift reconciles a run's stats against the model's predictions. The
// stats may be nil (an /explain request): the report then carries the
// predictions with zero actuals and invalid ratios.
func BuildDrift(pred PredictedLevels, stats *RunStats) *DriftReport {
	n := len(pred.LoopSize)
	rep := &DriftReport{PredictedCost: pred.Cost, Levels: make([]LevelDrift, 0, n)}
	enclosing := 1.0 // expected iterations of the loop enclosing level i
	for i := 0; i < n; i++ {
		iters := pred.LoopSize[i]
		if i < len(pred.FilterProb) {
			iters *= 1 - pred.FilterProb[i]
		}
		if iters < 0 {
			iters = 0
		}
		ld := LevelDrift{
			Level:               i,
			PredictedCandidates: enclosing * pred.LoopSize[i],
			PredictedIters:      enclosing * iters,
		}
		if i < len(pred.Steps) {
			ld.PredictedIntersections = ld.PredictedIters * float64(pred.Steps[i])
		}
		if pred.IEPCut >= 0 && i > pred.IEPCut {
			ld.CoveredByIEP = true
		}
		if stats != nil && i < len(stats.Levels) && !ld.CoveredByIEP {
			l := &stats.Levels[i]
			ld.ActualCandidates = l.Candidates
			ld.ActualIntersections = l.Intersections
			iterCount := l.Candidates
			if iterCount >= l.DupSkips {
				iterCount -= l.DupSkips
			}
			ld.ActualIters = iterCount
			ld.Ratio, ld.Valid = ratio(float64(l.Intersections), ld.PredictedIntersections)
			if !ld.Valid && ld.PredictedIntersections == 0 && l.Intersections == 0 {
				// Intersection-free level: fall back to candidate volume.
				ld.Ratio, ld.Valid = ratio(float64(l.Candidates), ld.PredictedCandidates)
			}
			rep.TotalPredicted += ld.PredictedIntersections
			rep.TotalActual += l.Intersections
		} else if stats == nil {
			rep.TotalPredicted += ld.PredictedIntersections
		}
		rep.Levels = append(rep.Levels, ld)
		enclosing = ld.PredictedIters
	}
	rep.OverallRatio, _ = ratio(float64(rep.TotalActual), rep.TotalPredicted)
	return rep
}

// ratio returns a/b when it is a finite number. Degenerate denominators — a
// level predicted at zero, or at a value so small the quotient overflows —
// report (0, false): the report is JSON-encoded, which rejects NaN and ±Inf.
// A zero numerator is an ordinary ratio: a level the empty-set cut kept the
// run from ever scanning reads 0, valid.
func ratio(a, b float64) (float64, bool) {
	r := a / b
	if b == 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return 0, false
	}
	return r, true
}
