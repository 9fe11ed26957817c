package cluster

import (
	"fmt"
	"net"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/taskpool"
)

// Transport is a pool of ranks the master runs jobs on. DialTCP connects one
// to worker processes; Run dials an in-process one when Options.Transport is
// nil; NewFaultyTransport wraps either with fault injection. Every one runs
// the same master (tcp_transport.go) against the same worker (serve.go).
type Transport interface {
	// Ranks returns the rank count for the next job: the live worker set.
	// It is also the pool's supervision point — lost links due for a retry
	// are redialed here.
	Ranks() int
	// TotalWorkers returns the cluster-wide worker count for a job with
	// workersPerRank requested per rank, counting the per-worker overrides
	// (ServeOptions.Workers) advertised at join time, so the master's task
	// granularity matches the workers that actually run.
	TotalWorkers(workersPerRank int) int
	// PoolStats reports the pool's health and recovery counters.
	PoolStats() PoolStats
	// Close releases the pool. Workers observe it as a leave: their
	// connections close and they return to accepting new masters.
	Close() error

	// run executes one job on nranks ranks: it ships the job to every rank,
	// grants tasks on demand until each is acknowledged, and returns the
	// per-rank partial results, indexed by rank, with the time from the first
	// grant to the last result. A lost rank is recovered from (its
	// acknowledged counts are banked, its unacknowledged tasks re-granted to
	// the survivors), so run errors only when no live rank remains.
	run(job *Job, tasks []taskpool.Range, nranks int) ([]RankResult, time.Duration, error)
}

// Job bundles everything the master ships to its ranks for one counting job.
// The bound configuration travels as its inputs (pattern, schedule,
// restrictions, whether it walks the IEP nest) plus a fingerprint of the
// graph, and each worker rebuilds and rebinds the Job against its own replica
// (wire.go's jobSpec).
type Job struct {
	// Bound is the bound configuration every rank executes. The ranks
	// return raw tallies; the master applies its ScaleIEP correction.
	Bound core.Bound
	// Graph is the shared data graph (every rank holds a full replica, as
	// in the paper's MPI implementation).
	Graph *graph.Graph
	// WorkersPerRank is the number of worker goroutines each rank runs.
	WorkersPerRank int
	// NodeDelay artificially slows rank DelayedRank per task
	// (failure/straggler injection for tests); 0 disables.
	NodeDelay   time.Duration
	DelayedRank int
	// FailAfterTasks, when > 0, makes rank FailRank die after completing
	// that many tasks (fault injection for tests and benchmarks, shipped on
	// the wire like NodeDelay). Death happens at a task boundary: the worker
	// closes its connection abruptly after acknowledging the task.
	// Multi-rank jobs only — a single rank has no survivor to recover on.
	FailRank       int
	FailAfterTasks int
}

// RankResult is one rank's partial outcome: the raw (pre-IEP-scaling) tally
// of its workers plus its load-balance statistics.
type RankResult struct {
	Raw   int64
	Stats NodeStats
}

// dialInProcess returns a pool of n ranks that live in this process. Each
// link is a net.Pipe whose far end runs serveConn against g, so an in-process
// rank speaks the wire protocol and recovers from loss exactly like a TCP
// worker; a lost link is redialed as a fresh pipe.
func dialInProcess(g *graph.Graph, n int) (*pool, error) {
	holder := &graphHolder{g: g}
	dial := func(time.Duration) (net.Conn, error) {
		near, far := net.Pipe()
		go func() {
			defer far.Close()
			// The master sees a failing rank as a lost link; there is no
			// operator log for an in-process rank.
			_ = serveConn(far, holder, ServeOptions{})
		}()
		return near, nil
	}
	endpoints := make([]endpoint, n)
	for i := range endpoints {
		endpoints[i] = endpoint{addr: fmt.Sprintf("in-process rank %d", i), dial: dial}
	}
	return dialPool(endpoints, DialOptions{})
}
