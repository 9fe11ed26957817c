package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"graphpi/internal/costmodel"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/perm"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// ErrNoSchedule is returned when schedule generation yields no usable
// search order for a pattern.
var ErrNoSchedule = errors.New("core: no efficient schedule")

// PlanOptions tunes the configuration search (paper Figure 3: configuration
// generation + performance prediction).
type PlanOptions struct {
	// MaxRestrictionSets caps how many restriction sets Algorithm 1
	// produces for ranking (0 → restrict package default).
	MaxRestrictionSets int
	// Model selects the cost model (GraphPi default; GraphZeroApprox
	// reproduces the baseline's blind estimator).
	Model costmodel.Model
	// GraphZeroRestrictions uses the single GraphZero-style restriction
	// set instead of Algorithm 1's families (baseline reproduction). Plan
	// does so for every pattern above perm.MaxTableDegree vertices.
	GraphZeroRestrictions bool
	// Phase1Only disables the Phase-2 schedule filter (baseline
	// reproduction: GraphZero generates connected schedules only).
	Phase1Only bool
	// KeepAll retains every ranked (schedule, restriction set, predicted
	// cost) in PlanResult.Ranked, for tests and benchmarks that compare
	// the planner's choice with the rest of the space. It compiles
	// nothing extra.
	KeepAll bool
}

// Candidate pairs an uncompiled configuration with its predicted cost: one
// entry of PlanResult.Ranked (see PlanOptions.KeepAll).
type Candidate struct {
	Schedule     schedule.Schedule
	Restrictions restrict.Set
	Cost         float64
}

// PlanResult is the planner's output.
type PlanResult struct {
	// Best is the compiled minimum-predicted-cost configuration.
	Best *Config
	// Ranked lists all candidate configurations ascending by predicted
	// cost (populated only with PlanOptions.KeepAll).
	Ranked []Candidate
	// NumSchedules and NumRestrictionSets describe the searched space.
	NumSchedules, NumRestrictionSets int
	// K and KEff are the pattern's independent-set bound and the Phase-2
	// threshold actually applied.
	K, KEff int
	// PrepTime is the total preprocessing time: restriction generation,
	// schedule generation and performance prediction (paper Table III).
	PrepTime time.Duration
}

// Plan runs GraphPi's preprocessing for a pattern against the statistics of
// a data graph: generate restriction sets (Algorithm 1), generate efficient
// schedules (2-phase), predict the cost of every combination, and compile
// the best configuration.
//
// Algorithm 1 searches on the pattern's order table, which exists up to
// perm.MaxTableDegree vertices. Above it Plan ranks the schedules against
// GraphZero's stabiliser-chain set (restrict.GraphZeroSet) alone, which is
// complete by construction and costs no search.
func Plan(pat *pattern.Pattern, stats graph.Stats, opt PlanOptions) (*PlanResult, error) {
	start := time.Now()
	if !pat.Connected() {
		return nil, fmt.Errorf("core: pattern %s is disconnected", pat)
	}

	var sets []restrict.Set
	if opt.GraphZeroRestrictions || pat.N() > perm.MaxTableDegree {
		sets = []restrict.Set{restrict.GraphZeroSet(pat)}
	} else {
		var err error
		sets, err = restrict.Generate(pat, restrict.Options{MaxSets: opt.MaxRestrictionSets})
		if err != nil {
			return nil, err
		}
	}

	sres := schedule.Generate(pat, schedule.Options{Phase1Only: opt.Phase1Only})
	if len(sres.Efficient) == 0 {
		return nil, fmt.Errorf("core: no efficient schedules for %s", pat)
	}

	params := costmodel.FromStats(stats)
	res := &PlanResult{
		NumSchedules:       len(sres.Efficient),
		NumRestrictionSets: len(sets),
		K:                  sres.K,
		KEff:               sres.KEff,
	}

	type scored struct {
		sched, set int
		cost       float64
	}
	raw := make([][][2]uint8, len(sets))
	for ri, rs := range sets {
		raw[ri] = make([][2]uint8, len(rs))
		for j, r := range rs {
			raw[ri][j] = [2]uint8{r.First, r.Second}
		}
	}
	var ranked []scored
	for si, s := range sres.Efficient {
		plan := schedule.BuildPlan(schedule.RelabeledPattern(pat, s), pat.N())
		for ri, rs := range sets {
			mapped := schedule.MapRestrictions(s, raw[ri])
			cost := costmodel.Estimate(plan, pat.N(), mapped, params, opt.Model).Cost
			ranked = append(ranked, scored{sched: si, set: ri, cost: cost})
			if opt.KeepAll {
				res.Ranked = append(res.Ranked, Candidate{
					Schedule:     s.Clone(),
					Restrictions: rs.Clone(),
					Cost:         cost,
				})
			}
		}
	}
	// Stable, so equal predictions keep (schedule, set) generation order.
	slices.SortStableFunc(ranked, func(a, b scored) int { return cmp.Compare(a.cost, b.cost) })
	slices.SortStableFunc(res.Ranked, func(a, b Candidate) int { return cmp.Compare(a.Cost, b.Cost) })

	compile := func(c scored) (*Config, error) {
		cfg, err := NewConfig(pat, sres.Efficient[c.sched], sets[c.set])
		if err != nil {
			return nil, err
		}
		cfg.Cost = c.cost
		// Hand the costing statistics to the configuration so drift reports
		// reason from the same model.
		p := params
		cfg.planParams = &p
		return cfg, nil
	}
	best, err := compile(ranked[0])
	if err != nil {
		return nil, err
	}
	// IEP preference: the paper's counting path relies on the IEP suffix,
	// but the exactness check of computeIEPScaling can reject the top
	// configuration's restriction set. If a configuration within
	// iepCostSlack of the best prediction supports IEP, prefer it — the
	// counting speedup dwarfs the modeled difference.
	if best.KIEP() == 0 {
		for i, tries := 1, 0; i < len(ranked) && tries < iepMaxProbes; i++ {
			if ranked[i].cost > ranked[0].cost*iepCostSlack {
				break
			}
			tries++
			alt, err := compile(ranked[i])
			if err != nil {
				return nil, err
			}
			if alt.KIEP() >= 1 {
				best = alt
				break
			}
		}
	}
	res.Best = best
	res.PrepTime = time.Since(start)
	return res, nil
}

const (
	// iepCostSlack bounds how much predicted cost the planner trades for
	// an IEP-capable configuration. IEP gains are typically an order of
	// magnitude or more (paper Figure 10), so a 4x modeled enumeration
	// cost is still a good trade for counting workloads.
	iepCostSlack = 4.0
	// iepMaxProbes bounds how many alternative configurations are
	// compiled while searching for IEP support.
	iepMaxProbes = 32
)

// PlanGraphZero reproduces the GraphZero baseline's preprocessing: one
// canonical restriction set, Phase-1-only schedules, and the degree-only
// restriction-blind cost model.
func PlanGraphZero(pat *pattern.Pattern, stats graph.Stats) (*PlanResult, error) {
	return Plan(pat, stats, PlanOptions{
		Model:                 costmodel.GraphZeroApprox,
		GraphZeroRestrictions: true,
		Phase1Only:            true,
	})
}
