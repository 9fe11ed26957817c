package service

import (
	"net/http"

	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

// The observability surface: GET /explain (the plan and its cost-model
// predictions without executing anything) and the /metrics renderers (JSON by
// default, Prometheus text exposition behind ?format=prometheus).

// explainResult is the GET /explain payload: everything the planner decided
// for a query, plus the cost model's per-level predictions in the same drift
// shape ?profile=1 returns — with zero actuals, since nothing ran.
type explainResult struct {
	Graph    string `json:"graph"`
	Pattern  string `json:"pattern"`
	Schedule string `json:"schedule"`
	IEP      bool   `json:"iep"`
	Cache    string `json:"cache"` // hit | miss — whether the plan was cached
	// Tier is the execution tier a local run of this plan would resolve to.
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
	pat, err := pattern.Parse(req.patternSpec)
	if err != nil {
		writeError(w, &statusError{400, err.Error()})
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
		Tier:     cfg.ResolveTier(req.tier).String(),
		PlanSec:  planSec,
	}
	if d, ok := cfg.DriftReport(req.useIEP, nil); ok {
		res.Predicted = d
		res.PredictedCost = d.PredictedCost
	}
	writeJSON(w, http.StatusOK, res)
}

// handleMetrics serves /metrics. The payload is always a point-in-time
// snapshot, so it is never cacheable; JSON is the default shape and
// ?format=prometheus selects the text exposition a scraper wants.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	case "prometheus":
		w.Header().Set("Content-Type", telemetry.PromContentType)
		s.promExposition().WriteTo(w)
	default:
		writeError(w, &statusError{400, "unknown format " + f + " (want json or prometheus)"})
	}
}

// promExposition renders the service's state as Prometheus metric families:
// the JSON snapshot's fields, the cluster pool's latency histograms, and
// every process-level metric in the telemetry registry.
func (s *Server) promExposition() *telemetry.Exposition {
	m := s.MetricsSnapshot()
	e := telemetry.NewExposition()
	e.AddGauge("graphpi_uptime_seconds", "Seconds since the server started.", m.UptimeSec, nil)
	e.AddGauge("graphpi_graphs_resident", "Graphs registered and resident in memory.", float64(m.Graphs), nil)
	e.AddGauge("graphpi_queue_depth", "Admitted jobs waiting for a run slot.", float64(m.QueueDepth), nil)
	e.AddGauge("graphpi_running_jobs", "Jobs holding a run slot.", float64(m.RunningJobs), nil)
	e.AddGauge("graphpi_busy_workers", "Worker goroutines checked out of the shared pool.", float64(m.BusyWorkers), nil)
	e.AddGauge("graphpi_worker_cap", "Shared worker pool capacity.", float64(m.WorkerCap), nil)

	const jobsHelp = "Job outcomes since start, by terminal state."
	e.AddCounter("graphpi_jobs_total", jobsHelp, float64(m.Jobs.Created), map[string]string{"state": "created"})
	e.AddCounter("graphpi_jobs_total", jobsHelp, float64(m.Jobs.Done), map[string]string{"state": "done"})
	e.AddCounter("graphpi_jobs_total", jobsHelp, float64(m.Jobs.Failed), map[string]string{"state": "failed"})
	e.AddCounter("graphpi_jobs_total", jobsHelp, float64(m.Jobs.Canceled), map[string]string{"state": "canceled"})
	e.AddCounter("graphpi_jobs_total", jobsHelp, float64(m.Jobs.Rejected), map[string]string{"state": "rejected"})

	e.AddGauge("graphpi_plan_cache_entries", "Plans resident in the cache.", float64(m.Cache.Entries), nil)
	e.AddGauge("graphpi_plan_cache_bytes", "Bytes the cached plans occupy.", float64(m.Cache.Bytes), nil)
	e.AddCounter("graphpi_plan_cache_hits_total", "Plan cache hits.", float64(m.Cache.Hits), nil)
	e.AddCounter("graphpi_plan_cache_misses_total", "Plan cache misses.", float64(m.Cache.Misses), nil)
	e.AddCounter("graphpi_plan_cache_evictions_total", "Plans evicted by the byte budget.", float64(m.Cache.Evictions), nil)
	e.AddCounter("graphpi_planning_runs_total", "Planner executions (cache misses that planned).", float64(m.Cache.Plans), nil)

	if s.cluster != nil {
		e.AddGauge("graphpi_cluster_workers_configured", "Cluster workers configured.", float64(m.WorkersConfigured), nil)
		e.AddGauge("graphpi_cluster_workers_alive", "Cluster workers currently connected.", float64(m.WorkersAlive), nil)
		e.AddCounter("graphpi_cluster_rejoins_total", "Workers re-admitted after a loss.", float64(m.RejoinsTotal), nil)
		e.AddCounter("graphpi_cluster_tasks_redealt_total", "Tasks re-dealt from lost workers.", float64(m.RedealtTotal), nil)
		e.AddCounter("graphpi_cluster_job_retries_total", "Whole-job retries after total failures.", float64(m.JobRetriesTotal), nil)
		st, _ := s.cluster.poolStats()
		e.AddHistogram("graphpi_cluster_task_gap_seconds",
			"Master-side gap between consecutive task acks per rank (per-task latency proxy).", st.TaskGap, nil)
		e.AddHistogram("graphpi_cluster_redeal_seconds",
			"Re-deal drain duration after a worker loss.", st.Redeal, nil)
	}

	e.AddGathered(telemetry.Gather())
	return e
}
