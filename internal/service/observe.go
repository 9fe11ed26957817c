package service

import (
	"context"
	"net/http"

	"graphpi/internal/telemetry"
)

// The observability surface: GET /explain (the plan and its cost-model
// predictions without executing anything) and GET /metrics (the JSON Metrics
// snapshot).

// explainResult is the GET /explain payload: everything the planner decided
// for a query, plus the cost model's per-level predictions in the same drift
// shape ?profile=1 returns — with zero actuals, since nothing ran.
type explainResult struct {
	Graph    string `json:"graph"`
	Pattern  string `json:"pattern"`
	Schedule string `json:"schedule"`
	IEP      bool   `json:"iep"`
	Cache    string `json:"cache"` // hit | miss — whether the plan was cached
	// Tier is the executor a run of this plan uses, on either backend.
	Tier          string  `json:"tier"`
	PlanSec       float64 `json:"plan_seconds"`
	PredictedCost float64 `json:"predicted_cost,omitempty"`
	// Predicted carries the per-level predictions (actuals zero, ratios
	// invalid). Nil when the configuration has no planner statistics.
	Predicted *telemetry.DriftReport `json:"predicted,omitempty"`
}

// handleExplain serves GET /explain from the shared prologue alone: the
// explain job holds a run slot while it plans (and, on a cache miss,
// probes), and a full queue sheds it with 429 exactly as it sheds /count.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := parseQuery(r, true)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.explain(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// explain plans one query and reports the plan without running it. Its job
// returns the run slot once the report is built, before the reply is
// written, as a count job does.
func (s *Server) explain(ctx context.Context, req queryRequest) (_ *explainResult, err error) {
	q, err := s.begin(ctx, "explain", req)
	if err != nil {
		return nil, err
	}
	defer s.end(q, new(int64), &err) // an explain job counts nothing
	res := &explainResult{
		Graph:    q.rg.name,
		Pattern:  q.pat.String(),
		Schedule: q.bound.Config().Schedule.String(),
		IEP:      req.iep,
		Cache:    cacheLabel(q.hit),
		Tier:     q.bound.Tier().String(),
		PlanSec:  q.planSec,
	}
	if d, ok := q.bound.DriftReport(nil); ok {
		res.Predicted = d
		res.PredictedCost = d.PredictedCost
	}
	return res, nil
}

// handleMetrics serves /metrics: the JSON Metrics snapshot. It is a
// point-in-time reading, so it is never cacheable. Query parameters are
// ignored.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
