// Package service is GraphPi's resident query server: it holds optimized
// data graphs in memory and executes pattern-matching queries against them
// over HTTP, amortizing the paper's per-pattern preprocessing across queries
// instead of across one batch run.
//
// Three pieces carry the load:
//
//   - a plan cache (core.PlanCache) keyed by graph name, fingerprint and
//     canonical pattern form, so a repeat query skips schedule/restriction
//     search entirely and its planning latency collapses to a map lookup;
//   - an admission controller (admit.go) — a bounded run-slot gate with a
//     FIFO waiting line and fast 429s beyond it, whose every slot carries
//     its job's share of the worker budget, so concurrent jobs share the
//     machine instead of oversubscribing it; and
//   - a backend abstraction (backend.go): the same compiled configuration
//     executes on the in-process engine or across TCP cluster workers,
//     bit-identically, so deployments scale from one box to a worker fleet
//     without clients noticing.
//
// Every query — count, enumerate or explain — is a job that passes the same
// prologue (Server.begin: resolve graph, parse pattern, admit, plan):
// observable via /jobs, cancellable via
// /jobs/{id}/cancel, and cancelled implicitly when its client disconnects —
// cancellation reaches a wait on another job's planning run and the core
// counting loops through the job's context, and frees the job's workers
// within one outer-loop boundary.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/cluster"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/perm"
	"graphpi/internal/telemetry"
)

// Options configures a Server. Zero values pick sane defaults.
type Options struct {
	// MaxConcurrent bounds how many jobs hold a run slot at once (default
	// 2, and never more than TotalWorkers).
	MaxConcurrent int
	// MaxQueue bounds how many admitted jobs may wait for a run slot;
	// arrivals beyond it are rejected with ErrQueueFull (default 64).
	MaxQueue int
	// TotalWorkers is the worker-goroutine budget the run slots share
	// (default GOMAXPROCS). Each slot carries ⌊TotalWorkers/MaxConcurrent⌋
	// workers; a request's workers= parameter may ask for fewer.
	TotalWorkers int
	// ClusterAddrs lists TCP cluster workers (cluster.Serve listeners).
	// When set, counting jobs default to cluster dispatch; every worker
	// must hold a replica of the resident graph a job targets.
	ClusterAddrs []string
	// ClusterWorkersPerNode is the per-rank worker count for dispatched
	// jobs (default 2; workers may override via their ServeOptions).
	ClusterWorkersPerNode int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the service
	// handler. Off by default: the profiler exposes heap contents, so it is
	// an operator opt-in (-pprof on the CLI), not a public surface.
	EnablePprof bool
	// Tracer, if non-nil, receives NDJSON span events for the coarse phases
	// of every query: plan, run, cluster-deal.
	Tracer *telemetry.Tracer
	// Logf, if non-nil, receives lifecycle messages.
	Logf func(format string, args ...any)
}

func (o *Options) normalize() {
	if o.MaxConcurrent < 1 {
		o.MaxConcurrent = 2
	}
	if o.MaxQueue < 1 {
		o.MaxQueue = 64
	}
	if o.TotalWorkers < 1 {
		o.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	// Every slot carries at least one worker, so slots beyond the worker
	// budget would oversubscribe it.
	o.MaxConcurrent = min(o.MaxConcurrent, o.TotalWorkers)
}

// Server is the resident query service. Create one with New, register
// graphs with AddGraph, and serve Handler() over HTTP.
type Server struct {
	opt     Options
	cache   core.PlanCache[planKey]
	jobs    *jobTable
	admit   *admission
	local   localBackend
	cluster *clusterBackend
	start   time.Time

	mu     sync.RWMutex
	graphs map[string]*residentGraph

	jobsCreated  atomic.Int64
	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	jobsRejected atomic.Int64
	// countQueries counts count queries that reached a backend (success or
	// failure), profiledRuns those that ran with ?profile=1; queryLatency
	// times each such backend run.
	countQueries atomic.Int64
	profiledRuns atomic.Int64
	queryLatency telemetry.Histogram
}

// residentGraph is one registered graph plus its cached identity.
type residentGraph struct {
	name string
	g    *graph.Graph
	fp   string
}

// New creates a Server with no graphs registered.
func New(opt Options) *Server {
	opt.normalize()
	s := &Server{
		opt:    opt,
		jobs:   newJobTable(),
		admit:  newAdmission(opt.MaxConcurrent, opt.TotalWorkers/opt.MaxConcurrent, opt.MaxQueue),
		start:  time.Now(),
		graphs: map[string]*residentGraph{},
	}
	if len(opt.ClusterAddrs) > 0 {
		s.cluster = newClusterBackend(opt.ClusterAddrs, opt.ClusterWorkersPerNode, opt.Tracer)
	}
	return s
}

// Close releases backend resources (cluster connections). In-flight jobs
// fail; the HTTP listener is the caller's to close.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.close()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// AddGraph registers a resident graph under name. Optimize the graph before
// registering (hub bitmap construction is not safe concurrent with readers);
// registered graphs are treated as immutable.
func (s *Server) AddGraph(name string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("service: graph name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.graphs[name]; ok {
		return fmt.Errorf("service: graph %q already registered", name)
	}
	s.graphs[name] = &residentGraph{name: name, g: g, fp: cluster.FingerprintKey(g)}
	s.logf("service: graph %q resident (%d vertices, %d edges)", name, g.NumVertices(), g.NumEdges())
	return nil
}

// Graph returns the resident graph registered under name.
func (s *Server) Graph(name string) (*graph.Graph, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rg, ok := s.graphs[name]
	if !ok {
		return nil, false
	}
	return rg.g, true
}

// graphList returns the resident graphs in map order (callers sort).
func (s *Server) graphList() []*residentGraph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*residentGraph, 0, len(s.graphs))
	for _, rg := range s.graphs {
		out = append(out, rg)
	}
	return out
}

// resolveGraph maps a request's graph parameter to a resident graph. An
// empty name resolves only when exactly one graph is resident.
func (s *Server) resolveGraph(name string) (*residentGraph, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.graphs) == 1 {
			for _, rg := range s.graphs {
				return rg, nil
			}
		}
		return nil, &statusError{404, fmt.Sprintf("graph parameter required (%d graphs resident)", len(s.graphs))}
	}
	rg, ok := s.graphs[name]
	if !ok {
		return nil, &statusError{404, fmt.Sprintf("no resident graph %q", name)}
	}
	return rg, nil
}

// statusError carries an HTTP status through the execution path.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// maxQueryPatternVertices bounds the pattern size a query may name. Planning
// runs after admission, inside a run slot. Above 8 vertices core.Plan ranks
// its schedules against GraphZero's one restriction set, so a 9-vertex
// pattern plans in well under a second (BA(3000,4) statistics, 2-vCPU Xeon:
// C9 26 ms, K4,5 39 ms, K9 0.17 s), but the schedule search is still
// factorial in the pattern size: K10 took 2.0 s. ROADMAP item 9(b), a
// planner that is not factorial in the pattern size, lifts the bound.
const maxQueryPatternVertices = 9

// parseQueryPattern resolves a query's pattern spec, answering 400 for a
// spec pattern.Parse rejects or a pattern above maxQueryPatternVertices.
// Callers run it before creating a job or holding a run slot.
func parseQueryPattern(spec string) (*pattern.Pattern, error) {
	pat, err := pattern.Parse(spec)
	if err != nil {
		return nil, &statusError{400, err.Error()}
	}
	if pat.N() > maxQueryPatternVertices {
		return nil, &statusError{400, fmt.Sprintf("pattern %s has %d vertices; queries take at most %d", pat, pat.N(), maxQueryPatternVertices)}
	}
	return pat, nil
}

// queryRequest is one parsed count/enumerate request.
type queryRequest struct {
	graphName   string
	patternSpec string
	iep         bool
	backendName string // "", "auto", "local", "cluster"
	workers     int    // requested budget; 0 → the run slot's whole budget
	limit       int64  // enumerate: stop after this many embeddings (0 = all)
	profile     bool   // collect per-level run stats + drift (?profile=1)
}

// queryResult is the outcome of a count job (and the trailer of an
// enumerate stream).
type queryResult struct {
	Job       string  `json:"job"`
	Graph     string  `json:"graph"`
	Pattern   string  `json:"pattern"`
	Backend   string  `json:"backend"`
	Count     int64   `json:"count"`
	IEP       bool    `json:"iep,omitempty"`
	Cache     string  `json:"cache"` // hit | miss
	Workers   int     `json:"workers,omitempty"`
	PlanSec   float64 `json:"plan_seconds"`
	ExecSec   float64 `json:"exec_seconds"`
	Schedule  string  `json:"schedule,omitempty"`
	Tier      string  `json:"tier,omitempty"`      // execution tier the count ran on
	Truncated bool    `json:"truncated,omitempty"` // enumerate hit its limit

	// Profile carries the run's collected per-level statistics and the
	// cost-model drift reconciliation when the request asked for ?profile=1.
	Profile *ProfileReport `json:"profile,omitempty"`
}

// ProfileReport is the ?profile=1 payload: what the run actually did at every
// schedule level, reconciled against what the planner's cost model predicted.
type ProfileReport struct {
	// Tier is the execution tier the profiled run used.
	Tier string `json:"tier"`
	// Levels holds the merged per-level counters, indexed by schedule
	// position. Empty on the cluster backend: the wire protocol reduces
	// counts, not counters, so only predictions are reported there.
	Levels []telemetry.LevelStats `json:"levels,omitempty"`
	// Drift reconciles the counters against the cost model (Eq. 6/7). Nil
	// when the configuration carries no planner statistics.
	Drift *telemetry.DriftReport `json:"drift,omitempty"`
	// Note flags reduced payloads (e.g. cluster backend: predictions only).
	Note string `json:"note,omitempty"`
}

// planKey identifies one cached plan: the resident graph by name AND
// fingerprint (the name separates graphs whose fingerprints collide, the
// fingerprint keeps a name honest should a graph ever be replaced under
// it), and the pattern by canonical form, so isomorphic spellings share an
// entry planned for whichever spelling missed first; runEnumerate maps that
// spelling's embeddings back to the request's.
type planKey struct {
	graphName string // resident registration name
	graphFP   string // cluster.FingerprintKey of the resident graph
	patternCK string // pattern.CanonicalKey: equal across isomorphic forms
}

// plan resolves the cached configuration for (graph, pattern); on a miss
// the cache plans and orients it on the job's workers (core.PlanCache.Get).
// The configuration searches for cfg.Pattern, which is pat or another
// spelling of it. planSec is the wall time this call spent planning — ≈0 on
// a hit, the point of the cache. A request cancelled while it waits for
// another request's planning run returns ctx's error at once.
func (s *Server) plan(ctx context.Context, rg *residentGraph, pat *pattern.Pattern, workers int) (cfg *core.Config, planSec float64, hit bool, err error) {
	key := planKey{graphName: rg.name, graphFP: rg.fp, patternCK: pat.CanonicalKey()}
	t0 := time.Now()
	cfg, _, hit, err = s.cache.Get(ctx.Done(), key, pat, rg.g, workers)
	if errors.Is(err, core.ErrPlanAbandoned) {
		err = ctx.Err()
	}
	return cfg, time.Since(t0).Seconds(), hit, err
}

// pickBackend resolves the backend for a count job. Enumerate always runs
// locally: the cluster wire protocol reduces counts, not embedding streams.
func (s *Server) pickBackend(req queryRequest) (backend, error) {
	switch req.backendName {
	case "", "auto":
		if s.cluster != nil {
			return s.cluster, nil
		}
		return s.local, nil
	case "local":
		return s.local, nil
	case "cluster":
		if s.cluster == nil {
			return nil, &statusError{400, "no cluster workers configured (start with -cluster-workers)"}
		}
		return s.cluster, nil
	default:
		return nil, &statusError{400, fmt.Sprintf("unknown backend %q (want auto, local or cluster)", req.backendName)}
	}
}

// query is a request past the prologue every endpoint shares: its graph is
// resolved, its pattern parsed, its job registered, it holds a run slot with
// its worker budget, and its configuration is planned and bound.
type query struct {
	ctx     context.Context // the job's context: cancelled by /jobs/{id}/cancel
	job     *job
	rg      *residentGraph
	pat     *pattern.Pattern
	bound   core.Bound // the planned configuration, bound to the request's IEP choice
	workers int        // the slot's worker budget; the probe and a local run use it
	hit     bool
	planSec float64
}

// begin runs the prologue of a count, enumerate or explain request: resolve
// graph → parse pattern → admit → plan → bind. Nothing plans, probes or runs
// before the job holds a run slot. On success the caller owns the slot and
// must defer end at once; on an error or a planner panic begin has already
// recorded the job's failure, returned its slot and retired it.
func (s *Server) begin(ctx context.Context, kind string, req queryRequest) (*query, error) {
	rg, err := s.resolveGraph(req.graphName)
	if err != nil {
		return nil, err
	}
	pat, err := parseQueryPattern(req.patternSpec)
	if err != nil {
		return nil, err
	}
	j, ctx := s.jobs.create(ctx, kind, rg.name, pat.String())
	s.jobsCreated.Add(1)
	workers, err := s.admit.acquire(ctx, req.workers)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.jobsRejected.Add(1)
		}
		s.countFinish(j, 0, err)
		s.jobs.retire(j)
		return nil, err
	}
	q := &query{ctx: ctx, job: j, rg: rg, pat: pat, workers: workers}
	defer func() {
		if p := recover(); p != nil {
			s.finish(q, 0, errPlanPanic)
			panic(p)
		}
	}()
	tPlan := time.Now()
	var cfg *core.Config
	cfg, q.planSec, q.hit, err = s.plan(ctx, rg, pat, workers)
	s.opt.Tracer.Span("plan", tPlan, map[string]string{
		"graph": rg.name, "pattern": pat.String(), "cache": cacheLabel(q.hit),
	})
	if err != nil {
		s.finish(q, 0, err)
		return nil, err
	}
	q.bound = cfg.Bind(req.iep, core.TierAuto)
	return q, nil
}

// end is deferred by every caller begin handed a query to, with pointers to
// the count and error the caller will return; it finishes the query with
// them. A panic between begin and end (a backend run, result building)
// still fails the job and returns its slot before it propagates, so a
// panicking request cannot wedge admission.
func (s *Server) end(q *query, count *int64, err *error) {
	if p := recover(); p != nil {
		s.finish(q, 0, errJobPanic)
		panic(p)
	}
	s.finish(q, *count, *err)
}

// errPlanPanic is the recorded failure of a job whose planner panicked.
var errPlanPanic = errors.New("service: planning panicked")

// errJobPanic is the recorded failure of a job whose request panicked after
// planning.
var errJobPanic = errors.New("service: job panicked")

// finish records a begun query's outcome, returns its run slot and retires
// its job.
func (s *Server) finish(q *query, count int64, err error) {
	s.countFinish(q.job, count, err)
	s.admit.release(q.workers)
	s.jobs.retire(q.job)
}

// runCount executes one counting query end to end: the shared prologue,
// backend execution, job bookkeeping.
func (s *Server) runCount(ctx context.Context, req queryRequest) (_ *queryResult, err error) {
	be, err := s.pickBackend(req)
	if err != nil {
		return nil, err
	}
	q, err := s.begin(ctx, "count", req)
	if err != nil {
		return nil, err
	}
	var count int64
	defer s.end(q, &count, &err)

	// Local jobs run on the slot's workers; cluster jobs burn remote cores
	// and report none.
	workers := 0
	local := be == backend(s.local)
	if local {
		workers = q.workers
	}

	// ?profile=1: hand the backend a stats sink. Local runs merge every
	// worker shard into it; the cluster backend leaves it empty (the wire
	// reduces counts, not counters) and the profile reports predictions only.
	var stats *telemetry.RunStats
	if req.profile {
		stats = telemetry.NewRunStats(q.pat.N())
		s.profiledRuns.Add(1)
	}

	q.job.setRunning(be.name(), workers, q.hit)
	t0 := time.Now()
	count, err = be.count(q.ctx, q.bound, q.rg.g, workers, stats)
	execSec := time.Since(t0).Seconds()
	s.countQueries.Add(1)
	s.queryLatency.Observe(time.Since(t0))
	s.opt.Tracer.Span("run", t0, map[string]string{
		"graph": q.rg.name, "pattern": q.pat.String(), "backend": be.name(),
	})
	if err != nil {
		return nil, err
	}
	res := &queryResult{
		Job:     q.job.id,
		Graph:   q.rg.name,
		Pattern: q.pat.String(),
		Backend: be.name(),
		Count:   count,
		IEP:     req.iep,
		Cache:   cacheLabel(q.hit),
		Workers: workers,
		PlanSec: q.planSec,
		ExecSec: execSec,
	}
	res.Schedule = q.bound.Config().Schedule.String()
	res.Tier = q.bound.Tier().String()
	if req.profile {
		p := &ProfileReport{Tier: res.Tier}
		if local {
			p.Levels = stats.Levels
		} else {
			stats = nil // the wire carried no counters; don't reconcile zeros
			p.Note = "cluster backend reduces counts, not counters: predictions only"
		}
		if d, ok := q.bound.DriftReport(stats); ok {
			p.Drift = d
		} else if p.Note == "" {
			p.Note = "configuration carries no planner statistics; drift unavailable"
		}
		res.Profile = p
	}
	return res, nil
}

// runEnumerate executes one enumerate query, invoking visit for every
// embedding (possibly from several goroutines; visit must serialize its own
// output). visit receives the embedding as the configuration spells the
// pattern, and iso, nil when the request spells it the same way: the
// request's vertex u is then the embedding's iso[u]. It returns the stream
// trailer.
func (s *Server) runEnumerate(ctx context.Context, req queryRequest, visit func(emb []uint32, iso perm.Perm) bool) (_ *queryResult, err error) {
	// Enumerate always runs locally (the cluster wire reduces counts, not
	// embedding streams): an explicit cluster request is an error, auto
	// falls through to local, and unknown names get pickBackend's 400.
	if req.backendName == "cluster" {
		return nil, &statusError{400, "enumerate runs on the local backend only (the cluster wire protocol reduces counts, not embedding streams)"}
	}
	if _, err := s.pickBackend(req); err != nil {
		return nil, err
	}
	q, err := s.begin(ctx, "enumerate", req)
	if err != nil {
		return nil, err
	}
	var count int64
	defer s.end(q, &count, &err)
	// The cached configuration may search for another spelling of the
	// pattern (the cache key is the canonical form, so the two are
	// isomorphic); its embeddings are indexed by that spelling's vertices.
	// iso[u] is the configuration's vertex for requested vertex u.
	cfg := q.bound.Config()
	var iso perm.Perm
	if q.pat.AdjacencyString() != cfg.Pattern.AdjacencyString() {
		iso, _ = q.pat.IsomorphismTo(cfg.Pattern)
	}

	q.job.setRunning("local", q.workers, q.hit)
	// Visit runs concurrently from the job's workers: reserve an emission
	// slot before writing (and back out on failure), so the stream never
	// exceeds the limit and the tally stays exact under contention.
	var emitted atomic.Int64
	var truncated atomic.Bool
	// The job record and trailer use the emission tally, not Enumerate's
	// visit count: under a limit, a worker that trips the limit check has
	// already had its in-flight visit counted by the engine, so the raw
	// count can exceed what the stream carried.
	t0 := time.Now()
	_, err = cfg.Enumerate(q.ctx, q.rg.g, core.RunOptions{Workers: q.workers}, func(emb []uint32) bool {
		if req.limit > 0 && emitted.Add(1) > req.limit {
			emitted.Add(-1)
			truncated.Store(true)
			return false
		}
		if req.limit <= 0 {
			emitted.Add(1)
		}
		if !visit(emb, iso) {
			emitted.Add(-1)
			return false
		}
		return true
	})
	execSec := time.Since(t0).Seconds()
	count = emitted.Load()
	if err != nil {
		return nil, err
	}
	return &queryResult{
		Job:       q.job.id,
		Graph:     q.rg.name,
		Pattern:   q.pat.String(),
		Backend:   "local",
		Count:     count,
		Cache:     cacheLabel(q.hit),
		Workers:   q.workers,
		PlanSec:   q.planSec,
		ExecSec:   execSec,
		Truncated: truncated.Load(),
	}, nil
}

// countFinish records a job's terminal state in the job record and the
// service counters.
func (s *Server) countFinish(j *job, count int64, err error) {
	switch j.finish(count, err) {
	case JobDone:
		s.jobsDone.Add(1)
	case JobCanceled:
		s.jobsCanceled.Add(1)
	default:
		s.jobsFailed.Add(1)
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// Metrics is the snapshot served at /metrics: every number the service
// reports, counted since this Server was created.
type Metrics struct {
	UptimeSec   float64             `json:"uptime_seconds"`
	Graphs      int                 `json:"graphs"`
	QueueDepth  int                 `json:"queue_depth"`
	RunningJobs int                 `json:"running_jobs"`
	BusyWorkers int                 `json:"busy_workers"` // granted slots' budgets, cluster jobs' included
	WorkerCap   int                 `json:"worker_cap"`   // TotalWorkers
	Jobs        JobCounts           `json:"jobs"`
	Cache       core.PlanCacheStats `json:"cache"`
	HitRate     float64             `json:"cache_hit_rate"`
	Cluster     []string            `json:"cluster_workers,omitempty"`
	// QuerySeconds is the latency of every count query's backend run.
	QuerySeconds telemetry.HistogramSnapshot `json:"query_seconds"`

	// Cluster data-plane health (all zero without -cluster-workers;
	// workers_alive is 0 when the pool state is unknown — no transport
	// dialed yet — as well as when every worker is lost).
	WorkersConfigured int   `json:"workers_configured"`
	WorkersAlive      int   `json:"workers_alive"`
	RejoinsTotal      int64 `json:"rejoins_total"`
	RedealtTotal      int64 `json:"tasks_redealt_total"`
	JobRetriesTotal   int64 `json:"job_retries_total"`
	// The master's gap between consecutive task acks per rank (a per-task
	// latency proxy) and its re-deal drain times after a worker loss.
	// Present only with a cluster configured.
	ClusterTaskGap *telemetry.HistogramSnapshot `json:"cluster_task_gap_seconds,omitempty"`
	ClusterRedeal  *telemetry.HistogramSnapshot `json:"cluster_redeal_seconds,omitempty"`
}

// JobCounts aggregates job outcomes since start, plus the count queries
// that reached a backend and how many of those were profiled. Explain jobs
// count in Created through Rejected like count and enumerate jobs.
type JobCounts struct {
	Created      int64 `json:"created"`
	Done         int64 `json:"done"`
	Failed       int64 `json:"failed"`
	Canceled     int64 `json:"canceled"`
	Rejected     int64 `json:"rejected"`
	CountQueries int64 `json:"count_queries"`
	ProfiledRuns int64 `json:"profiled_runs"`
}

// MetricsSnapshot assembles the current metrics.
func (s *Server) MetricsSnapshot() Metrics {
	cs := s.cache.Stats()
	m := Metrics{
		UptimeSec:   time.Since(s.start).Seconds(),
		QueueDepth:  s.admit.queueDepth(),
		RunningJobs: s.admit.running(),
		BusyWorkers: s.admit.busyWorkers(),
		WorkerCap:   s.opt.TotalWorkers,
		Cache:       cs,
		Jobs: JobCounts{
			Created:      s.jobsCreated.Load(),
			Done:         s.jobsDone.Load(),
			Failed:       s.jobsFailed.Load(),
			Canceled:     s.jobsCanceled.Load(),
			Rejected:     s.jobsRejected.Load(),
			CountQueries: s.countQueries.Load(),
			ProfiledRuns: s.profiledRuns.Load(),
		},
		QuerySeconds: s.queryLatency.Snapshot(),
	}
	s.mu.RLock()
	m.Graphs = len(s.graphs)
	s.mu.RUnlock()
	if total := cs.Hits + cs.Misses; total > 0 {
		m.HitRate = float64(cs.Hits) / float64(total)
	}
	if s.cluster != nil {
		m.Cluster = s.cluster.addrs
		st, known := s.cluster.poolStats()
		m.WorkersConfigured = st.Workers
		if known {
			m.WorkersAlive = st.Live
		}
		m.RejoinsTotal = st.Rejoins
		m.RedealtTotal = st.Redealt
		m.JobRetriesTotal = s.cluster.jobRetries.Load()
		m.ClusterTaskGap, m.ClusterRedeal = &st.TaskGap, &st.Redeal
	}
	return m
}

// ClusterDegraded reports whether the service is configured for cluster
// dispatch but currently has zero live workers — the /healthz 503 condition.
// An undialed pool (no job has run yet) is not degraded: health is unknown,
// not known-bad, and the first job's dial would establish it.
func (s *Server) ClusterDegraded() bool {
	if s.cluster == nil {
		return false
	}
	st, known := s.cluster.poolStats()
	return known && st.Live == 0
}
