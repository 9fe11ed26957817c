// Package cluster implements GraphPi's distributed pattern matching layer
// (paper §IV-E).
//
// The paper runs an OpenMP/MPI hybrid on Tianhe-2A: every node holds a full
// replica of the data graph, a master partitions the outer loops into
// fine-grained tasks, each node keeps a local task queue that worker threads
// drain, and a node asks for more work when its queue runs low. This package
// reproduces that architecture with one master and one worker
// implementation:
//
//   - Run is the master's policy: it cuts the outer loops into tasks of
//     equal predicted work in the binding's task space (CSR adjacency slots
//     when the bound schedule flattens its first two loops, outermost-loop
//     vertices otherwise; see core.Bound.RootTasks) and reduces the per-rank
//     partial counts.
//   - The transport (tcp_transport.go) is the master's plumbing. It holds the
//     undealt tasks in one queue and grants them on demand: after each
//     acknowledgement, every rank is topped up to its worker count. A lost
//     rank's unacknowledged tasks go back to the front of the queue for the
//     survivors.
//   - Serve (serve.go) is the worker: one process per rank, holding its own
//     replica (loaded from a shared GPiCSR snapshot, or pushed by the master
//     when it joins cold). Its connection reader fills a local queue that the
//     rank's worker goroutines drain, acknowledging every task.
//
// Ranks reach the master over a byte stream (wire.go): a TCP connection per
// worker process (DialTCP), or, when Options.Transport is nil, a net.Pipe per
// rank whose far end runs the same worker code in-process. Fault injection,
// redial, statistics and loss recovery are therefore one code path in both
// modes; the in-process mode pays framing on a pipe instead of a socket.
package cluster

import (
	"fmt"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
)

// Options configures a cluster run.
type Options struct {
	// Nodes is the number of in-process ranks (≥ 1) Run dials when
	// Transport is nil. Ignored otherwise: the rank count is then the
	// transport's live worker set.
	Nodes int
	// WorkersPerNode is the number of worker goroutines per rank (the
	// paper runs 24 OpenMP threads per rank); ≥ 1.
	WorkersPerNode int
	// ChunkSize is the task granularity in outermost-loop vertices: < 1 →
	// cut by predicted work; > 0 → fixed-size test hook, exactly like
	// core.RunOptions.ChunkSize.
	ChunkSize int
	// UseIEP asks Run to count on the IEP nest (core.Config.Bind).
	UseIEP bool
	// NodeDelay artificially slows one rank per task (failure/straggler
	// injection for tests); 0 disables.
	NodeDelay time.Duration
	// DelayedNode is the index of the straggler rank when NodeDelay > 0.
	DelayedNode int
	// Transport selects the ranks. nil → Nodes in-process ranks, each a
	// worker behind a net.Pipe; use DialTCP to run against remote worker
	// processes instead.
	Transport Transport
}

// normalize clamps the options to runnable values. Chunk sizing reads the
// normalized node/worker counts, so it must run before tasks are packed.
func (o *Options) normalize() {
	if o.Nodes < 1 {
		o.Nodes = 1
	}
	if o.WorkersPerNode < 1 {
		o.WorkersPerNode = 1
	}
}

// NodeStats describes one rank's activity during a run.
type NodeStats struct {
	// TasksRun is the number of tasks the rank's workers executed.
	TasksRun int64
	// BusyTime is the wall time the rank's workers spent executing tasks
	// (injected NodeDelay excluded — slowness shows up as fewer tasks
	// executed, not as work done). The spread of BusyTime across ranks is
	// the load-balance evidence of §IV-E: a rank pinned by an indivisible
	// hub task shows up holding nearly 100% of the total busy time.
	BusyTime time.Duration
}

// Result is the outcome of a cluster run.
type Result struct {
	Count int64
	// Elapsed runs from the first task grant to the last rank's result; job
	// setup (snapshot pushes, job frames, worker-side compilation) is
	// excluded.
	Elapsed time.Duration
	Nodes   []NodeStats
	// Tasks is the total number of tasks the master created.
	Tasks int
}

// MaxBusyShare returns the largest fraction of the total across per-node
// busy times (0 when no busy time was recorded). Perfect balance is
// 1/len(busy). It is exported so facade result types can reuse the metric.
func MaxBusyShare(busy []time.Duration) float64 {
	var total, max time.Duration
	for _, b := range busy {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// MaxBusyShare returns the largest per-node fraction of the total busy time
// (0 when no busy time was recorded). Perfect balance is 1/len(Nodes).
func (r *Result) MaxBusyShare() float64 {
	busy := make([]time.Duration, len(r.Nodes))
	for i, ns := range r.Nodes {
		busy[i] = ns.BusyTime
	}
	return MaxBusyShare(busy)
}

// tasksPerWorker is how many root tasks the master cuts per worker in the
// cluster: fewer than the engine's 64, as every grant and acknowledgement
// crosses a wire, but enough for on-demand grants to absorb a long task.
const tasksPerWorker = 16

// Run binds the configuration (core.Config.Bind with opt.UseIEP, the
// executor left to the engine) and runs it with RunBound.
func Run(cfg *core.Config, g *graph.Graph, opt Options) (*Result, error) {
	return RunBound(cfg.Bind(opt.UseIEP, core.TierAuto), g, opt)
}

// RunBound executes a bound configuration on a cluster and returns the
// embedding count with per-rank statistics; opt.UseIEP is ignored, as b
// carries that decision. Counts are exact and identical for any node/worker
// configuration, task cut and transport. Workers rebind the configuration
// they receive to the same nest, on the executor the engine picks, and so
// read the tasks in the same task space as the master.
func RunBound(b core.Bound, g *graph.Graph, opt Options) (*Result, error) {
	opt.normalize()
	tr := opt.Transport
	if tr == nil {
		inproc, err := dialInProcess(g, opt.Nodes)
		if err != nil {
			return nil, err
		}
		defer inproc.Close()
		tr = inproc
	}
	nranks := tr.Ranks()
	if nranks < 1 {
		return nil, fmt.Errorf("cluster: transport has no ranks")
	}
	if g.NumVertices() == 0 {
		return &Result{Nodes: make([]NodeStats, nranks)}, nil
	}
	// The outer loops are cut by core's one cutter at the cluster-wide worker
	// count as the transport resolves it (remote workers may override their
	// per-rank count): equal predicted work per task, so one hub can no
	// longer pin a rank while its peers wait for crumbs.
	tasks := b.RootTasks(g, core.RunOptions{
		Workers:   tr.TotalWorkers(opt.WorkersPerNode),
		ChunkSize: opt.ChunkSize,
	}, tasksPerWorker)

	job := &Job{
		Bound:          b,
		Graph:          g,
		WorkersPerRank: opt.WorkersPerNode,
		NodeDelay:      opt.NodeDelay,
		DelayedRank:    opt.DelayedNode,
	}
	partials, elapsed, err := tr.run(job, tasks, nranks)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Elapsed: elapsed,
		Tasks:   len(tasks),
		Nodes:   make([]NodeStats, nranks),
	}
	res.Count = reducePartials(b, partials, res.Nodes)
	return res, nil
}

// reducePartials folds the per-rank partial counts into the job total (and
// copies out per-node stats). The fold is the cluster layer's only
// count-bearing arithmetic, and it must be reproducible: partials arrive in
// rank order and sum associatively, so the total is independent of which
// rank finished first.
//
//graphpi:deterministic
func reducePartials(b core.Bound, partials []RankResult, nodes []NodeStats) int64 {
	var raw int64
	for i, p := range partials {
		raw += p.Raw
		nodes[i] = p.Stats
	}
	return b.ScaleIEP(raw)
}

// String renders per-node statistics compactly.
func (r *Result) String() string {
	return fmt.Sprintf("count=%d elapsed=%v tasks=%d nodes=%d",
		r.Count, r.Elapsed, r.Tasks, len(r.Nodes))
}
