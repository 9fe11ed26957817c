// Package graphpi is a pure-Go implementation of GraphPi, the graph pattern
// matching system of Shi et al., "GraphPi: High Performance Graph Pattern
// Matching through Effective Redundancy Elimination" (SC 2020).
//
// GraphPi finds (or counts) all embeddings of a small pattern graph in a
// large data graph. Its performance comes from three ideas, all implemented
// here:
//
//   - 2-cycle based automorphism elimination generates many alternative
//     restriction sets, each of which makes every embedding be found exactly
//     once (§IV-A);
//   - a 2-phase schedule generator and an accurate performance model pick
//     the best combination of search order and restriction set for the
//     input graph's statistics (§IV-B/C);
//   - counting-only workloads replace the innermost loops with an
//     Inclusion-Exclusion computation (§IV-D).
//
// Quick start:
//
//	g, _ := graphpi.LoadDataset("WikiVote-S", 1.0)
//	p := graphpi.House()
//	plan, _ := graphpi.NewPlan(g, p)
//	fmt.Println(plan.CountIEP())
//
// See the examples directory for complete programs and DESIGN.md for how
// each paper experiment maps onto this library.
package graphpi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"graphpi/internal/cluster"
	"graphpi/internal/codegen"
	"graphpi/internal/core"
	"graphpi/internal/dataset"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/service"
	"graphpi/internal/telemetry"
)

// Graph is an undirected data graph in CSR form. The graph itself is
// immutable; the only state a Graph gathers is a memo of its plans (see
// NewPlan), one small entry per distinct pattern spelling under a fixed
// byte budget, safe for concurrent use.
type Graph struct {
	g *graph.Graph
	// plans memoises NewPlan's preprocessing per pattern spelling (name
	// and adjacency), so Plan.Enumerate needs no vertex mapping.
	plans core.PlanCache[string]
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int64 { return g.g.NumEdges() }

// Triangles returns the triangle count (computed once, then cached).
func (g *Graph) Triangles() int64 { return g.g.Triangles() }

// Name returns the dataset label, if any.
func (g *Graph) Name() string { return g.g.Name() }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v uint32) int { return g.g.Degree(v) }

// Neighbors returns the ascending neighbor list of v (read-only view).
func (g *Graph) Neighbors(v uint32) []uint32 { return g.g.Neighbors(v) }

// StatsString renders |V|, |E|, triangle count and degree statistics.
func (g *Graph) StatsString() string { return g.g.Stats().String() }

// Optimize returns a hybrid-adjacency view of the graph: vertices are
// relabeled so ids descend by degree (restriction windows prune earlier,
// hubs cluster at the front of the id space) and the top vertices by degree
// get packed adjacency bitsets, so hub intersections cost O(|small side|).
// Plans run against the optimized view typically count 1.5-2x faster on
// power-law graphs; Enumerate still reports original vertex ids. The
// original graph is not modified.
//
// hubBudgetBytes bounds the memory of the hub bitmaps, their 4-byte-per-
// vertex index included (<= 0 → 64 MiB, the budget the CLI's -hybrid and
// the query service's "optimize" use). Vertices only become hubs above a degree of 64.
// Optimizing a view that is already optimized, such as a reloaded snapshot,
// keeps its vertex order, and with hubBudgetBytes <= 0 its hub set too.
func (g *Graph) Optimize(hubBudgetBytes int64) *Graph {
	return &Graph{g: g.g.Optimize(hubBudgetBytes)}
}

// NewGraph builds a graph with n vertices from an undirected edge list. It
// returns an error when n is negative or an edge names a vertex outside
// 0..n-1.
func NewGraph(n int, edges [][2]uint32) (*Graph, error) {
	gg, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// LoadGraph reads a graph from disk, auto-detecting the binary snapshot
// format (written by SaveBinary) versus whitespace edge-list text.
func LoadGraph(path string) (*Graph, error) {
	gg, err := graph.LoadAnyFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// SaveBinary writes the fast binary snapshot format (GPiCSR3). Snapshots of
// an Optimize()d graph persist the degree-ordered id map and the hub set's
// size, so the hybrid view's Reorder cost is paid once per dataset:
// LoadGraph restores the view (bitmaps are rebuilt, not stored), Optimize(0)
// on it returns it as it is, and Enumerate keeps reporting original vertex
// ids. LoadGraph rejects the older GPiCSR1/GPiCSR2 snapshots by name;
// regenerate them.
func (g *Graph) SaveBinary(path string) error { return graph.SaveBinaryFile(path, g.g) }

// LoadDataset builds one of the six named synthetic stand-in datasets
// reproducing the paper's Table I (see internal/dataset). scale 1.0 is the
// default reproduction size; smaller values shrink the graph approximately
// proportionally. Datasets are cached in-process.
func LoadDataset(name string, scale float64) (*Graph, error) {
	gg, err := dataset.Load(name, scale)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// DatasetNames lists the available dataset stand-ins.
func DatasetNames() []string { return dataset.SortedNames() }

// GenerateBA returns a Barabási–Albert preferential-attachment graph
// (power-law, clustered — a social-network regime).
func GenerateBA(n, edgesPerVertex int, seed uint64) *Graph {
	return &Graph{g: graph.BarabasiAlbert(n, edgesPerVertex, seed)}
}

// Pattern is a small undirected query graph.
type Pattern struct {
	p *pattern.Pattern
}

// NewPattern builds a pattern with n vertices from an edge list.
func NewPattern(n int, edges [][2]int, name string) (*Pattern, error) {
	pp, err := pattern.New(n, edges, name)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: pp}, nil
}

// N returns the number of pattern vertices.
func (p *Pattern) N() int { return p.p.N() }

// NumEdges returns the number of pattern edges.
func (p *Pattern) NumEdges() int { return p.p.NumEdges() }

// Name returns the pattern's display name.
func (p *Pattern) Name() string { return p.p.Name() }

// String renders "Name(nv,me)".
func (p *Pattern) String() string { return p.p.String() }

// Named patterns. Triangle, Rectangle, Pentagon, House and Cycle6Tri are
// the paper's worked examples; P1–P6 are the evaluation suite of Figure 7.
func Triangle() *Pattern  { return &Pattern{p: pattern.Triangle()} }
func Rectangle() *Pattern { return &Pattern{p: pattern.Rectangle()} }
func Pentagon() *Pattern  { return &Pattern{p: pattern.Pentagon()} }
func House() *Pattern     { return &Pattern{p: pattern.House()} }
func Cycle6Tri() *Pattern { return &Pattern{p: pattern.Cycle6Tri()} }

// Clique returns the complete pattern K_n (n ≤ 12).
func Clique(n int) *Pattern { return &Pattern{p: pattern.Clique(n)} }

// ParsePattern resolves a pattern spec, the one spelling the CLI and the
// query service accept: a name, case-insensitively — the worked examples
// (triangle, rectangle, pentagon, house, cycle6tri), the evaluation suite
// p1..p6 and cliques k3..k12 — or "n:rowmajor01matrix", the adjacency
// matrix of the GraphPi reference drivers, which is named "custom".
func ParsePattern(spec string) (*Pattern, error) {
	pp, err := pattern.Parse(spec)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: pp}, nil
}

// Motifs returns all connected patterns with n vertices up to isomorphism
// (n ≤ 5 recommended) — the motif-counting workload.
func Motifs(n int) []*Pattern {
	ps := pattern.AllConnected(n)
	out := make([]*Pattern, len(ps))
	for i, p := range ps {
		out[i] = &Pattern{p: p}
	}
	return out
}

// Option configures planning and execution.
type Option func(*options)

type options struct {
	workers int
	tier    core.Tier
	stats   *telemetry.RunStats
	tracer  *telemetry.Tracer
}

// WithWorkers sets the number of worker goroutines (default: GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// Tier selects the executor counting runs use: TierAuto (the default) picks
// the word-parallel clique kernel (TierGenerated) for total-order-restricted
// cliques and the loop-program interpreter for everything else, while
// TierInterpreted forces the interpreter. Both executors return bit-identical
// counts; the choice is purely about speed. Enumeration always interprets.
type Tier = core.Tier

const (
	TierAuto        = core.TierAuto
	TierInterpreted = core.TierInterpret
	TierGenerated   = core.TierGenerated
)

// TierCompiled named the removed runtime-compiled closure tier.
//
// Deprecated: it resolves to the interpreter.
const TierCompiled = core.TierCompiled

// WithTier selects the counting execution tier (see Tier).
func WithTier(t Tier) Option { return func(o *options) { o.tier = t } }

// AuxMode named a mode of the removed auxiliary-graph pruning.
//
// Deprecated: it has no effect.
type AuxMode uint8

// AuxOff and AuxOn were the values of AuxMode.
//
// Deprecated: they have no effect.
const (
	AuxOff AuxMode = iota
	AuxOn
)

// WithAux selected auxiliary-graph pruning.
//
// Deprecated: it is a no-op; counts and speed do not depend on it.
func WithAux(AuxMode) Option { return func(*options) {} }

// RunStats is the per-level execution telemetry a run collects: candidate
// scans and set sizes, intersection counts by kernel family, restriction
// prunes, duplicate skips, IEP evaluations, and sampled wall time — indexed
// by schedule level. See NewRunStats and WithRunStats.
type RunStats = telemetry.RunStats

// LevelStats is one schedule level's counters within a RunStats.
type LevelStats = telemetry.LevelStats

// DriftReport reconciles a run's collected statistics against the planner's
// cost-model predictions (the paper's Eq. 6/7 factors), level by level. See
// Plan.Drift.
type DriftReport = telemetry.DriftReport

// Tracer writes NDJSON span events (plan, run, cluster-deal) to a
// writer; a nil *Tracer discards everything. See NewTracer and WithTracer.
type Tracer = telemetry.Tracer

// NewTracer wraps w in a span tracer. The caller owns closing w.
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// NewRunStats allocates a telemetry sink for a pattern with n vertices (one
// counter block per schedule level), for WithRunStats.
func NewRunStats(n int) *RunStats { return telemetry.NewRunStats(n) }

// WithRunStats directs per-level execution telemetry into st for every run
// of the plan. Collection is opt-in because it is per-run state: allocate
// with NewRunStats(pattern.N()) and reuse across runs via st.Reset. Counts
// are bit-identical with or without stats; the overhead is one nil check
// per candidate scan when disabled and plain per-worker counters when
// enabled.
func WithRunStats(st *RunStats) Option { return func(o *options) { o.stats = st } }

// WithTracer emits coarse phase spans (plan, run) for the plan's
// lifecycle to t. A nil tracer is a no-op.
func WithTracer(t *Tracer) Option { return func(o *options) { o.tracer = t } }

// Plan is a compiled, ready-to-run matching configuration for one
// (graph, pattern) pair.
type Plan struct {
	g      *Graph
	cfg    *core.Config
	orient core.Orientation
	prep   time.Duration
	opts   options
}

// NewPlan runs GraphPi's preprocessing — restriction generation, schedule
// generation and performance prediction — and returns the selected optimal
// configuration bound to the graph. On an Optimize()d graph it then runs the
// selected restriction set or its mirror (every restriction reversed),
// whichever exact candidate counts on the graph show to be at least twice
// cheaper at the shallowest loop depth that tells them apart. The graph
// memoises the outcome per pattern spelling: the first plan of a pattern
// pays for planning and the probe, a repeated NewPlan of it on the same
// graph is a memo hit.
func NewPlan(g *Graph, p *Pattern, opts ...Option) (*Plan, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	t0 := time.Now()
	cfg, orient, _, err := g.plans.Get(nil, p.p.Name()+" "+p.p.AdjacencyString(), p.p, g.g, o.workers)
	if err != nil {
		return nil, err
	}
	pl := &Plan{g: g, cfg: cfg, orient: orient, prep: time.Since(t0), opts: o}
	o.tracer.Span("plan", t0, map[string]string{
		"graph": g.Name(), "pattern": p.String(), "orientation": orient.String(),
	})
	return pl, nil
}

// Count enumerates the full loop nest and returns the number of embeddings.
func (pl *Plan) Count() int64 {
	t0 := time.Now()
	n := pl.bind(false).Count(pl.g.g, pl.runOptions())
	pl.opts.tracer.Span("run", t0, map[string]string{"mode": "count"})
	return n
}

// CountIEP counts with the Inclusion-Exclusion optimization. For counting
// workloads this is the method to use; it returns the same number as Count.
func (pl *Plan) CountIEP() int64 {
	t0 := time.Now()
	n := pl.bind(true).Count(pl.g.g, pl.runOptions())
	pl.opts.tracer.Span("run", t0, map[string]string{"mode": "count-iep"})
	return n
}

// Drift reconciles collected run statistics against the plan's cost-model
// predictions: the per-level actual/predicted ratios that show where the
// model mispredicts on this graph. With st nil it returns the predictions
// alone, without executing anything. ok is false when the plan carries no
// cost-model statistics.
func (pl *Plan) Drift(useIEP bool, st *RunStats) (*DriftReport, bool) {
	return pl.bind(useIEP).DriftReport(st)
}

// Enumerate calls visit for every embedding. The slice is indexed by
// pattern vertex and reused; copy it to retain. With multiple workers visit
// runs concurrently. Return false to stop early. Returns the number of
// embeddings visited.
func (pl *Plan) Enumerate(visit func(embedding []uint32) bool) int64 {
	return pl.cfg.EnumerateAll(pl.g.g, pl.runOptions(), visit)
}

// CountCtx is Count under a context: cancellation stops every worker at its
// next outer-loop boundary, freeing the goroutines long before the full
// search would end. The partial tally is returned with ctx's error; a nil
// error means the count ran to completion and is exact.
func (pl *Plan) CountCtx(ctx context.Context) (int64, error) {
	return pl.bind(false).Run(ctx, pl.g.g, pl.runOptions())
}

// CountIEPCtx is CountIEP under a context (see CountCtx).
func (pl *Plan) CountIEPCtx(ctx context.Context) (int64, error) {
	return pl.bind(true).Run(ctx, pl.g.g, pl.runOptions())
}

// EnumerateCtx is Enumerate under a context: after cancellation no further
// visits happen and the workers are released. Returns the number of visits
// that did happen alongside ctx's error.
func (pl *Plan) EnumerateCtx(ctx context.Context, visit func(embedding []uint32) bool) (int64, error) {
	return pl.cfg.Enumerate(ctx, pl.g.g, pl.runOptions(), visit)
}

// PrepTime returns the time NewPlan spent preparing this plan: on the first
// plan of a pattern the preprocessing (configuration generation plus
// performance prediction — the paper's Table III quantity) and the
// orientation probe, on a memo hit the lookup alone.
func (pl *Plan) PrepTime() time.Duration { return pl.prep }

// ExecutionTier reports the tier a Count/CountIEP call on this plan will
// actually run on: TierAuto resolves to the clique kernel for total-order
// cliques, and every other request (e.g. TierGenerated for a pattern that is
// no clique) resolves to the interpreter — the same silent fallback the
// engine takes.
func (pl *Plan) ExecutionTier(useIEP bool) Tier {
	return pl.bind(useIEP).Tier()
}

// Describe renders the chosen schedule and restriction set, and whether the
// planned set was kept or mirrored on this graph (see NewPlan).
func (pl *Plan) Describe() string {
	return fmt.Sprintf("schedule %s, restrictions %s, predicted cost %.4g, IEP k=%d, orientation %s",
		pl.cfg.Schedule, pl.cfg.Restrictions, pl.cfg.Cost, pl.cfg.KIEP(), pl.orient)
}

// bind fixes the nest and executor of the plan's counting runs (see
// core.Config.Bind): the IEP nest when useIEP, on the WithTier executor.
func (pl *Plan) bind(useIEP bool) core.Bound { return pl.cfg.Bind(useIEP, pl.opts.tier) }

func (pl *Plan) runOptions() core.RunOptions {
	return core.RunOptions{Workers: pl.opts.workers, Stats: pl.opts.stats}
}

// GenerateSource emits the plan's configuration as a standalone Go program
// (the paper's code-generation stage, Figure 3): a self-contained main
// package that loads an edge-list graph from argv[1], runs the hard-coded
// loop nest with the plan's restrictions, and prints the embedding count.
func (pl *Plan) GenerateSource() (string, error) {
	return codegen.GenerateSource(pl.cfg.SourceSpec())
}

// Count is the one-shot convenience API: plan and count with IEP.
func Count(g *Graph, p *Pattern, opts ...Option) (int64, error) {
	pl, err := NewPlan(g, p, opts...)
	if err != nil {
		return 0, err
	}
	return pl.CountIEP(), nil
}

// ClusterOptions configures a distributed run (paper §IV-E).
type ClusterOptions struct {
	// Nodes is the number of compute nodes (MPI ranks), run in-process.
	// Ignored by Cluster.Count: the rank set is then the connected workers.
	Nodes int
	// WorkersPerNode is the number of worker goroutines per node.
	WorkersPerNode int
	// UseIEP enables Inclusion-Exclusion counting.
	UseIEP bool
}

// ClusterResult reports a distributed run.
type ClusterResult struct {
	Count   int64
	Elapsed time.Duration
	// Tasks is the total number of tasks the master created.
	Tasks int
	// TasksPerNode is how many tasks each node executed (load balance
	// evidence).
	TasksPerNode []int64
	// BusyPerNode is the wall time each node's workers spent executing
	// tasks; the spread across nodes measures load balance.
	BusyPerNode []time.Duration
	// Steals is always 0: nodes ask the master for work instead of
	// stealing from each other.
	//
	// Deprecated: kept only for callers that still read it.
	Steals int64
}

// MaxBusyShare returns the largest per-node fraction of the total busy time
// (0 when none was recorded). Perfect balance is 1/Nodes.
func (r *ClusterResult) MaxBusyShare() float64 {
	return cluster.MaxBusyShare(r.BusyPerNode)
}

// ClusterCount plans and counts on copt.Nodes in-process nodes that take
// tasks from the master on demand; ConnectCluster(...).Count runs the same
// job across TCP worker processes. The master cuts the tasks by predicted
// work, the same cut a local run makes.
func ClusterCount(g *Graph, p *Pattern, copt ClusterOptions, opts ...Option) (*ClusterResult, error) {
	return clusterCount(nil, g, p, copt, opts...)
}

// clusterCount runs one job on the given transport (nil → copt.Nodes
// in-process nodes).
func clusterCount(tr cluster.Transport, g *Graph, p *Pattern, copt ClusterOptions, opts ...Option) (*ClusterResult, error) {
	pl, err := NewPlan(g, p, opts...)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer pl.opts.tracer.Span("cluster-deal", t0, map[string]string{"pattern": p.String()})
	res, err := cluster.Run(pl.cfg, g.g, cluster.Options{
		Nodes:          copt.Nodes,
		WorkersPerNode: copt.WorkersPerNode,
		UseIEP:         copt.UseIEP,
		Transport:      tr,
	})
	if err != nil {
		return nil, err
	}
	out := &ClusterResult{
		Count:   res.Count,
		Elapsed: res.Elapsed,
		Tasks:   res.Tasks,
	}
	for _, ns := range res.Nodes {
		out.TasksPerNode = append(out.TasksPerNode, ns.TasksRun)
		out.BusyPerNode = append(out.BusyPerNode, ns.BusyTime)
	}
	return out, nil
}

// Cluster is a handle to a set of TCP-connected worker processes
// (cluster.Serve listeners). It can run many counting jobs and is safe for
// concurrent use: its jobs run one at a time, and a concurrent Count waits
// for the running one. Close releases the connections. The handle is
// elastic: a worker lost mid-job has its unfinished tasks re-dealt to the
// survivors (counts stay exact), and lost workers are redialed — with capped
// exponential backoff — before each subsequent job, so a restarted worker
// rejoins without redialing the handle. A job errors only when every worker
// is lost at once.
type Cluster struct {
	tr cluster.Transport
}

// ConnectCluster dials worker processes at addrs (see ServeCluster and
// `graphpi -serve`) and returns a handle running jobs across them, one
// rank per worker. Every worker must hold a replica of the data graph a job
// uses — typically loaded from a shared GPiCSR3 snapshot — and the graph's
// fingerprint is verified per job.
func ConnectCluster(addrs ...string) (*Cluster, error) {
	tr, err := cluster.DialTCP(addrs, cluster.DialOptions{})
	if err != nil {
		return nil, err
	}
	return &Cluster{tr: tr}, nil
}

// Close disconnects from the workers.
func (c *Cluster) Close() error { return c.tr.Close() }

// Count plans and counts across the connected workers. ClusterOptions.Nodes
// is ignored — the rank set is this handle's worker set.
func (c *Cluster) Count(g *Graph, p *Pattern, copt ClusterOptions, opts ...Option) (*ClusterResult, error) {
	return clusterCount(c.tr, g, p, copt, opts...)
}

// ClusterServer is a running TCP worker process serving counting jobs
// against one graph replica (the facade over cluster.Serve).
type ClusterServer struct {
	ln   net.Listener
	done chan error
}

// ServeCluster starts a worker listening on addr (e.g. ":9421", or
// "127.0.0.1:0" for an ephemeral test port) that executes counting jobs
// against g. g may be nil: the worker then joins cold and fetches a
// fingerprint-verified snapshot of the data graph from the first master
// that connects, so a replacement worker needs no local graph file.
// workersPerJob overrides the per-job worker goroutine count requested by
// masters (0 → honor the master). The server runs on a background
// goroutine; use Addr to learn the bound address, Wait to block until
// shutdown, and Close to stop. The worker logs one line per connection event
// and job through the standard log package (log.SetOutput redirects them).
func ServeCluster(addr string, g *Graph, workersPerJob int) (*ClusterServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var replica *graph.Graph
	if g != nil {
		replica = g.g
	}
	s := &ClusterServer{ln: ln, done: make(chan error, 1)}
	go func() {
		s.done <- cluster.Serve(ln, replica, cluster.ServeOptions{Workers: workersPerJob, Logf: log.Printf})
	}()
	return s, nil
}

// Addr returns the listener's address ("host:port").
func (s *ClusterServer) Addr() string { return s.ln.Addr().String() }

// Wait blocks until the server stops (listener closed) and returns its
// terminal error, if any.
func (s *ClusterServer) Wait() error { return <-s.done }

// Close stops accepting masters. Jobs in flight fail their masters'
// connections.
func (s *ClusterServer) Close() error { return s.ln.Close() }

// QueryServiceOptions configures ServeQueries, the resident query server.
type QueryServiceOptions struct {
	// Graphs are the resident graphs, by name. Optimize them before
	// registering; they are treated as immutable once served.
	Graphs map[string]*Graph
	// MaxConcurrentJobs bounds the run slots, i.e. simultaneously admitted
	// queries (0 → 2, capped at TotalWorkers).
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds queries waiting for a run slot; beyond it the
	// server answers 429 (0 → 64).
	MaxQueuedJobs int
	// TotalWorkers is the worker-goroutine budget the run slots share
	// (0 → GOMAXPROCS): each slot carries
	// TotalWorkers / MaxConcurrentJobs workers.
	TotalWorkers int
	// ClusterWorkers lists TCP cluster worker addresses (ServeCluster /
	// `graphpi -serve` listeners). When set, counting queries dispatch to
	// the cluster by default; every worker must hold a replica of the
	// resident graph a query targets.
	ClusterWorkers []string
	// ClusterWorkersPerNode is the per-rank worker count for dispatched
	// jobs (0 → 2).
	ClusterWorkersPerNode int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the query
	// handler — an operator opt-in (the profiler exposes heap contents).
	EnablePprof bool
	// TraceWriter, if non-nil, receives NDJSON span events (plan, run,
	// cluster-deal) for every query. The caller owns closing it after
	// the server stops.
	TraceWriter io.Writer
	// Logf, if non-nil, receives lifecycle messages.
	Logf func(format string, args ...any)
}

// QueryServer is a running query service (the facade over
// internal/service): an HTTP server with count/enumerate/jobs/metrics
// endpoints, a plan cache, admission control, and cancellable jobs. See the
// README's "Serving queries" quickstart for the endpoint reference.
type QueryServer struct {
	ln   net.Listener
	s    *service.Server
	http *http.Server
	done chan error
}

// ServeQueries starts a query service listening on addr (e.g. ":8080", or
// "127.0.0.1:0" for an ephemeral port). The server runs on a background
// goroutine; use Addr to learn the bound address, Wait to block until
// shutdown, and Close to stop.
func ServeQueries(addr string, opt QueryServiceOptions) (*QueryServer, error) {
	s := service.New(service.Options{
		MaxConcurrent:         opt.MaxConcurrentJobs,
		MaxQueue:              opt.MaxQueuedJobs,
		TotalWorkers:          opt.TotalWorkers,
		ClusterAddrs:          opt.ClusterWorkers,
		ClusterWorkersPerNode: opt.ClusterWorkersPerNode,
		EnablePprof:           opt.EnablePprof,
		Tracer:                telemetry.NewTracer(opt.TraceWriter),
		Logf:                  opt.Logf,
	})
	for name, g := range opt.Graphs {
		if err := s.AddGraph(name, g.g); err != nil {
			s.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return nil, err
	}
	qs := &QueryServer{
		ln:   ln,
		s:    s,
		http: &http.Server{Handler: s.Handler()},
		done: make(chan error, 1),
	}
	go func() {
		err := qs.http.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed) {
			err = nil
		}
		qs.done <- err
	}()
	return qs, nil
}

// Addr returns the listener's address ("host:port").
func (q *QueryServer) Addr() string { return q.ln.Addr().String() }

// Handler exposes the service's HTTP API for embedding into an existing
// mux or test server.
func (q *QueryServer) Handler() http.Handler { return q.s.Handler() }

// Wait blocks until the server stops and returns its terminal error.
func (q *QueryServer) Wait() error { return <-q.done }

// Close stops the listener, closes active connections — in-flight jobs
// observe their request contexts cancelling and release their workers —
// and releases backend resources.
func (q *QueryServer) Close() error {
	err := q.http.Close()
	q.s.Close()
	return err
}
