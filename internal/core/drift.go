package core

import (
	"graphpi/internal/costmodel"
	"graphpi/internal/telemetry"
)

// predictedLevels maps the planner's cost model (Eq. 6/7 via
// costmodel.Estimate) onto the neutral per-level form telemetry.BuildDrift
// consumes: loop sizes, filter probabilities, hoisted-intersection counts
// and the IEP cut of b's nest. ok is false when the configuration was built
// without planner statistics (NewConfig called directly) — there is nothing
// to reconcile a run against.
func (b Bound) predictedLevels() (telemetry.PredictedLevels, bool) {
	c := b.cfg
	if c.planParams == nil {
		return telemetry.PredictedLevels{}, false
	}
	est := costmodel.Estimate(c.plan, c.n, c.PosRestrictions(), *c.planParams, costmodel.GraphPi)
	pl := telemetry.PredictedLevels{
		LoopSize:   est.LoopSize,
		FilterProb: est.FilterProb,
		Steps:      make([]int, c.n),
		IEPCut:     b.prog.IEPCut,
		Cost:       est.Cost,
	}
	for d := 0; d < c.n; d++ {
		pl.Steps[d] = len(c.plan.Steps[d])
	}
	return pl, true
}

// DriftReport reconciles a run's collected stats against the cost-model
// predictions for b. st may be nil (an explain request): the report then
// carries predictions only. ok is false when the configuration carries no
// planner statistics.
func (b Bound) DriftReport(st *telemetry.RunStats) (*telemetry.DriftReport, bool) {
	pl, ok := b.predictedLevels()
	if !ok {
		return nil, false
	}
	return telemetry.BuildDrift(pl, st), true
}
