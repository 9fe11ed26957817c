package service

import (
	"net/http"

	"graphpi/internal/core"
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

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := parseQuery(r, true)
	if err != nil {
		writeError(w, err)
		return
	}
	rg, err := s.resolveGraph(req.graphName)
	if err != nil {
		writeError(w, err)
		return
	}
	pat, err := parseQueryPattern(req.patternSpec)
	if err != nil {
		writeError(w, err)
		return
	}
	cfg, planSec, hit, err := s.plan(rg, pat)
	if err != nil {
		writeError(w, err)
		return
	}
	res := explainResult{
		Graph:    rg.name,
		Pattern:  pat.String(),
		Schedule: cfg.Schedule.String(),
		IEP:      req.useIEP,
		Cache:    cacheLabel(hit),
		Tier:     cfg.ResolveTier(core.TierAuto).String(),
		PlanSec:  planSec,
	}
	if d, ok := cfg.DriftReport(req.useIEP, nil); ok {
		res.Predicted = d
		res.PredictedCost = d.PredictedCost
	}
	writeJSON(w, http.StatusOK, res)
}

// handleMetrics serves /metrics: the JSON Metrics snapshot. It is a
// point-in-time reading, so it is never cacheable. Query parameters are
// ignored.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
