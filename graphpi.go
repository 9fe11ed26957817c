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
	"net"
	"net/http"
	"os"
	"sync"
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
// immutable; the only state a Graph gathers is a memo of orientation
// decisions (see NewPlan), one small entry per distinct planned
// configuration, safe for concurrent use.
type Graph struct {
	g *graph.Graph
	// oriented memoises the orientation step (core.Config.Orient) per
	// planned configuration, so its probe runs at most once per graph and
	// configuration: ClusterCount and Cluster.Count plan on every call.
	mu       sync.Mutex
	oriented map[string]*orientedConfig // guarded by mu
}

// orientedConfig is one memoised orientation decision. ready is closed once
// cfg, o and err are final.
type orientedConfig struct {
	ready chan struct{}
	cfg   *core.Config
	o     core.Orientation
	err   error
}

// errOrientPanic is what callers waiting on a probe observe when the probing
// caller panicked.
var errOrientPanic = errors.New("graphpi: orientation probe panicked")

// orient returns the planned configuration or its mirror, whichever the
// orientation step picks on this graph, probing on workers goroutines only
// on the first request for the configuration. The lock covers the memo
// lookup alone: concurrent first requests for one configuration wait for
// its single probe, requests for other configurations do not.
func (g *Graph) orient(cfg *core.Config, workers int) (*core.Config, core.Orientation, error) {
	key := cfg.Pattern.AdjacencyString() + " " + cfg.Schedule.String() + " " + cfg.Restrictions.String()
	g.mu.Lock()
	e, ok := g.oriented[key]
	if !ok {
		e = &orientedConfig{ready: make(chan struct{})}
		if g.oriented == nil {
			g.oriented = make(map[string]*orientedConfig)
		}
		g.oriented[key] = e
	}
	g.mu.Unlock()
	if ok {
		<-e.ready
		return e.cfg, e.o, e.err
	}
	settled := false
	defer func() {
		if !settled {
			// A panicking probe must not leave waiters blocked; the
			// configuration is probed afresh by the next request.
			g.mu.Lock()
			delete(g.oriented, key)
			g.mu.Unlock()
			e.err = errOrientPanic
			close(e.ready)
		}
	}()
	e.cfg, e.o, e.err = cfg.Orient(g.g, workers)
	settled = true
	close(e.ready)
	return e.cfg, e.o, e.err
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

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v uint32) bool { return g.g.HasEdge(u, v) }

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
// vertex index included (<= 0 → 64 MiB, the same default as the query
// service's hub_budget). Vertices only become hubs above a degree floor of
// 64; use OptimizeHubs to tune it.
func (g *Graph) Optimize(hubBudgetBytes int64) *Graph {
	return g.OptimizeHubs(hubBudgetBytes, 0)
}

// OptimizeHubs is Optimize with an explicit hub degree floor: only vertices
// with degree >= hubDegreeFloor are eligible for an adjacency bitset
// (<= 0 → the default floor of 64). Lowering the floor trades budget for
// coverage on flatter degree distributions; snapshots of the view persist
// both the budget and the floor, so SaveBinary/LoadGraph round trips
// rebuild the same hub set.
func (g *Graph) OptimizeHubs(hubBudgetBytes int64, hubDegreeFloor int) *Graph {
	og := g.g.Reorder()
	og.BuildHubBitmaps(hubBudgetBytes, hubDegreeFloor)
	return &Graph{g: og}
}

// IsOptimized reports whether this graph is a degree-ordered view produced
// by Optimize.
func (g *Graph) IsOptimized() bool { return g.g.IsReordered() }

// NewGraph builds a graph with n vertices from an undirected edge list.
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

// ReadGraph parses an edge list from r.
func ReadGraph(r io.Reader) (*Graph, error) {
	gg, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// SaveBinary writes the fast binary snapshot format (GPiCSR3). Snapshots of
// an Optimize()d graph persist the degree-ordered id maps, the hub-bitmap
// budget and the hub degree floor, so the hybrid view's Reorder cost is
// paid once per dataset: LoadGraph restores the view (bitmaps are rebuilt,
// not stored) and Enumerate keeps reporting original vertex ids. LoadGraph
// rejects the older GPiCSR1/GPiCSR2 snapshots by name; regenerate them.
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

// GenerateGNM returns a uniform G(n,m) random graph.
func GenerateGNM(n, m int, seed uint64) *Graph {
	return &Graph{g: graph.GNM(n, m, seed)}
}

// GenerateRMAT returns an RMAT graph with 2^scale vertices (heavy skew).
func GenerateRMAT(scale, edges int, seed uint64) *Graph {
	return &Graph{g: graph.RMAT(scale, edges, 0.57, 0.19, 0.19, seed)}
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

// PatternFromAdjacency parses the row-major 0/1 adjacency-matrix string
// format used by the GraphPi reference implementation.
func PatternFromAdjacency(n int, matrix, name string) (*Pattern, error) {
	pp, err := pattern.ParseAdjacency(n, matrix, name)
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

// NamedPattern resolves a pattern by name, case-insensitively: the worked
// examples (triangle, rectangle, pentagon, house, cycle6tri), the
// evaluation suite p1..p6, and cliques k3..k12 — the names the CLI and the
// query service accept.
func NamedPattern(name string) (*Pattern, error) {
	pp, err := pattern.Named(name)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: pp}, nil
}

// ParsePattern resolves a pattern spec: a NamedPattern name or the
// "n:rowmajor01matrix" adjacency form.
func ParsePattern(spec string) (*Pattern, error) {
	pp, err := pattern.Parse(spec)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: pp}, nil
}

// EvaluationPatterns returns P1–P6, the suite used throughout the paper's
// evaluation section.
func EvaluationPatterns() []*Pattern {
	ps := pattern.EvaluationPatterns()
	out := make([]*Pattern, len(ps))
	for i, p := range ps {
		out[i] = &Pattern{p: p}
	}
	return out
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
// by schedule level. See Plan.NewRunStats and WithRunStats.
type RunStats = telemetry.RunStats

// LevelStats is one schedule level's counters within a RunStats.
type LevelStats = telemetry.LevelStats

// DriftReport reconciles a run's collected statistics against the planner's
// cost-model predictions (the paper's Eq. 6/7 factors), level by level. See
// Plan.Explain and Plan.Drift.
type DriftReport = telemetry.DriftReport

// Tracer writes NDJSON span events (plan, run, cluster-deal) to a
// writer; a nil *Tracer discards everything. See NewTracer and WithTracer.
type Tracer = telemetry.Tracer

// NewTracer wraps w in a span tracer. The caller owns closing w.
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// NewRunStats allocates a telemetry sink for a pattern with n vertices (one
// counter block per schedule level), for WithRunStats. Plan.NewRunStats is
// the same thing sized from an existing plan.
func NewRunStats(n int) *RunStats { return telemetry.NewRunStats(n) }

// WithRunStats directs per-level execution telemetry into st for every run
// of the plan. Collection is opt-in because it is per-run state: allocate
// with Plan.NewRunStats (or telemetry.NewRunStats(pattern.N())) and reuse
// across runs via st.Reset. Counts are bit-identical with or without stats;
// the overhead is one nil check per candidate scan when disabled and plain
// per-worker counters when enabled.
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
// cheaper at the shallowest loop depth that tells them apart; the first plan
// of a configuration pays for that probe, later plans reuse its decision.
func NewPlan(g *Graph, p *Pattern, opts ...Option) (*Plan, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	t0 := time.Now()
	res, err := core.Plan(p.p, g.g.Stats(), core.PlanOptions{})
	if err != nil {
		return nil, err
	}
	pl := &Plan{g: g, opts: o}
	t1 := time.Now()
	if pl.cfg, pl.orient, err = g.orient(res.Best, o.workers); err != nil {
		return nil, err
	}
	pl.prep = res.PrepTime + time.Since(t1)
	o.tracer.Span("plan", t0, map[string]string{
		"graph": g.Name(), "pattern": p.String(), "orientation": pl.orient.String(),
	})
	return pl, nil
}

// Count enumerates the full loop nest and returns the number of embeddings.
func (pl *Plan) Count() int64 {
	t0 := time.Now()
	n := pl.cfg.Count(pl.g.g, pl.runOptions())
	pl.opts.tracer.Span("run", t0, map[string]string{"mode": "count"})
	return n
}

// CountIEP counts with the Inclusion-Exclusion optimization. For counting
// workloads this is the method to use; it returns the same number as Count.
func (pl *Plan) CountIEP() int64 {
	t0 := time.Now()
	n := pl.cfg.CountIEP(pl.g.g, pl.runOptions())
	pl.opts.tracer.Span("run", t0, map[string]string{"mode": "count-iep"})
	return n
}

// NewRunStats allocates a telemetry sink sized for this plan's schedule, for
// use with WithRunStats (typically passed to NewPlan; a sink can also be
// installed on an existing plan's runs by re-planning). Reuse across runs
// with Reset.
func (pl *Plan) NewRunStats() *RunStats { return telemetry.NewRunStats(pl.cfg.N()) }

// Explain returns the cost model's per-level predictions for this plan
// without executing anything: a DriftReport whose actual counters are zero.
// ok is false when the plan carries no cost-model statistics.
func (pl *Plan) Explain(useIEP bool) (*DriftReport, bool) {
	return pl.cfg.DriftReport(useIEP, nil)
}

// Drift reconciles collected run statistics against the plan's cost-model
// predictions: the per-level actual/predicted ratios that show where the
// model mispredicts on this graph. ok is false when the plan carries no
// cost-model statistics.
func (pl *Plan) Drift(useIEP bool, st *RunStats) (*DriftReport, bool) {
	return pl.cfg.DriftReport(useIEP, st)
}

// Enumerate calls visit for every embedding. The slice is indexed by
// pattern vertex and reused; copy it to retain. With multiple workers visit
// runs concurrently. Return false to stop early. Returns the number of
// embeddings visited.
func (pl *Plan) Enumerate(visit func(embedding []uint32) bool) int64 {
	return pl.cfg.Enumerate(pl.g.g, pl.runOptions(), visit)
}

// CountCtx is Count under a context: cancellation stops every worker at its
// next outer-loop boundary, freeing the goroutines long before the full
// search would end. The partial tally is returned with ctx's error; a nil
// error means the count ran to completion and is exact.
func (pl *Plan) CountCtx(ctx context.Context) (int64, error) {
	return pl.cfg.CountCtx(ctx, pl.g.g, pl.runOptions())
}

// CountIEPCtx is CountIEP under a context (see CountCtx).
func (pl *Plan) CountIEPCtx(ctx context.Context) (int64, error) {
	return pl.cfg.CountIEPCtx(ctx, pl.g.g, pl.runOptions())
}

// EnumerateCtx is Enumerate under a context: after cancellation no further
// visits happen and the workers are released. Returns the number of visits
// that did happen alongside ctx's error.
func (pl *Plan) EnumerateCtx(ctx context.Context, visit func(embedding []uint32) bool) (int64, error) {
	return pl.cfg.EnumerateCtx(ctx, pl.g.g, pl.runOptions(), visit)
}

// PrepTime returns the preprocessing (configuration generation plus
// performance prediction) duration — the paper's Table III quantity — plus
// the orientation probe when this plan ran it.
func (pl *Plan) PrepTime() time.Duration { return pl.prep }

// PredictedCost returns the performance model's cost estimate for the
// selected configuration (relative units).
func (pl *Plan) PredictedCost() float64 { return pl.cfg.Cost }

// ExecutionTier reports the tier a Count/CountIEP call on this plan will
// actually run on: TierAuto resolves to the clique kernel for total-order
// cliques, and every other request (e.g. TierGenerated for a pattern that is
// no clique) resolves to the interpreter — the same silent fallback the
// engine takes. Both counting calls resolve alike, so useIEP is ignored.
func (pl *Plan) ExecutionTier(useIEP bool) Tier {
	return pl.cfg.ResolveTier(pl.opts.tier)
}

// Describe renders the chosen schedule and restriction set, and whether the
// planned set was kept or mirrored on this graph (see NewPlan).
func (pl *Plan) Describe() string {
	return fmt.Sprintf("schedule %s, restrictions %s, predicted cost %.4g, IEP k=%d, orientation %s",
		pl.cfg.Schedule, pl.cfg.Restrictions, pl.cfg.Cost, pl.cfg.KIEP(), pl.orient)
}

func (pl *Plan) runOptions() core.RunOptions {
	return core.RunOptions{
		Workers: pl.opts.workers,
		Tier:    pl.opts.tier,
		Stats:   pl.opts.stats,
	}
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
	// Ignored when the run targets TCP workers (Workers below, or a Cluster
	// handle): the rank count is then the connected worker set.
	Nodes int
	// WorkersPerNode is the number of worker goroutines per node.
	WorkersPerNode int
	// UseIEP enables Inclusion-Exclusion counting.
	UseIEP bool
	// Workers lists TCP worker addresses (cluster.Serve / ServeCluster
	// listeners, or `graphpi -serve`). When non-empty, ClusterCount dials
	// them for the run instead of running nodes in-process; every
	// worker must hold a replica of the same graph (typically loaded from
	// a shared GPiCSR3 snapshot). For repeated counts against the same
	// workers, dial once with ConnectCluster instead.
	Workers []string
}

// ClusterResult reports a distributed run.
type ClusterResult struct {
	Count   int64
	Elapsed time.Duration
	// Tasks is the total number of tasks the master created.
	Tasks int
	// EdgeParallel reports whether the master cut edge-slot tasks (it does
	// whenever the schedule allows and more than one worker runs) rather
	// than vertex ranges.
	EdgeParallel bool
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

// ClusterCount plans and counts on a cluster whose nodes take tasks from the
// master on demand. By default the nodes run in-process; set
// ClusterOptions.Workers (or use a ConnectCluster handle) to run the same job
// across TCP worker processes. The master cuts the tasks by predicted work,
// the same cut a local run makes.
func ClusterCount(g *Graph, p *Pattern, copt ClusterOptions, opts ...Option) (*ClusterResult, error) {
	if len(copt.Workers) > 0 {
		c, err := ConnectCluster(copt.Workers...)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.Count(g, p, copt, opts...)
	}
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
		Count:        res.Count,
		Elapsed:      res.Elapsed,
		Tasks:        res.Tasks,
		EdgeParallel: res.EdgeParallel,
	}
	for _, ns := range res.Nodes {
		out.TasksPerNode = append(out.TasksPerNode, ns.TasksRun)
		out.BusyPerNode = append(out.BusyPerNode, ns.BusyTime)
	}
	return out, nil
}

// Cluster is a handle to a set of TCP-connected worker processes
// (cluster.Serve listeners). It can run many counting jobs; Close releases
// the connections. The handle is elastic: a worker lost mid-job has its
// unfinished tasks re-dealt to the survivors (counts stay exact), and lost
// workers are redialed — with capped exponential backoff — before each
// subsequent job, so a restarted worker rejoins without redialing the
// handle. A job errors only when every worker is lost at once.
type Cluster struct {
	tr cluster.Transport
	n  int
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
	return &Cluster{tr: tr, n: len(addrs)}, nil
}

// Workers returns the number of connected worker processes.
func (c *Cluster) Workers() int { return c.n }

// Close disconnects from the workers.
func (c *Cluster) Close() error { return c.tr.Close() }

// Count plans and counts across the connected workers. ClusterOptions.Nodes
// and ClusterOptions.Workers are ignored — the rank set is this handle's
// worker set.
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
// shutdown, and Close to stop.
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
		s.done <- cluster.Serve(ln, replica, cluster.ServeOptions{
			Workers: workersPerJob,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
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
	// MaxConcurrentJobs bounds simultaneously executing queries (0 → 2).
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds queries waiting for a run slot; beyond it the
	// server answers 429 (0 → 64).
	MaxQueuedJobs int
	// TotalWorkers is the worker-goroutine budget local jobs share
	// (0 → GOMAXPROCS).
	TotalWorkers int
	// WorkersPerJob is the default per-job worker budget
	// (0 → TotalWorkers / MaxConcurrentJobs).
	WorkersPerJob int
	// PlanCacheBytes is the plan cache budget (0 → 8 MiB).
	PlanCacheBytes int64
	// ClusterWorkers lists TCP cluster worker addresses (ServeCluster /
	// `graphpi -serve` listeners). When set, counting queries dispatch to
	// the cluster by default; every worker must hold a replica of the
	// resident graph a query targets.
	ClusterWorkers []string
	// ClusterWorkersPerNode is the per-rank worker count for dispatched
	// jobs (0 → 2).
	ClusterWorkersPerNode int
	// ClusterJobRetries is how many times a failed cluster job is retried
	// before the client sees its error (0 → 2, negative → no retries).
	// Individual worker loss is recovered within an attempt by re-dealing;
	// retries cover losing the whole fleet at once.
	ClusterJobRetries int
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
		WorkersPerJob:         opt.WorkersPerJob,
		CacheBytes:            opt.PlanCacheBytes,
		ClusterAddrs:          opt.ClusterWorkers,
		ClusterWorkersPerNode: opt.ClusterWorkersPerNode,
		ClusterJobRetries:     opt.ClusterJobRetries,
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
