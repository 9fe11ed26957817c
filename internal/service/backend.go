package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/cluster"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/telemetry"
)

// A backend executes a compiled counting job. The service plans once
// (through the cache) and then dispatches the identical configuration either
// onto the local engine or across a connected TCP worker cluster; because
// both runtimes execute the same configuration on the same executors, the
// counts are bit-identical — asserted by test, and the reason a query can
// move between backends transparently.
type backend interface {
	// name tags job records and metrics.
	name() string
	// count runs the bound configuration to completion or ctx cancellation
	// (on both backends, the nest and executor b fixes). stats, when
	// non-nil, receives the run's per-level telemetry — local backend only,
	// since the wire protocol reduces counts, not counters.
	count(ctx context.Context, b core.Bound, g *graph.Graph, workers int, stats *telemetry.RunStats) (int64, error)
}

// localBackend runs on the in-process engine with the job's worker budget.
type localBackend struct{}

func (localBackend) name() string { return "local" }

func (localBackend) count(ctx context.Context, b core.Bound, g *graph.Graph, workers int, stats *telemetry.RunStats) (int64, error) {
	return b.Run(ctx, g, core.RunOptions{Workers: workers, Stats: stats})
}

// clusterBackend dispatches counting jobs across TCP worker processes
// (cluster.Serve listeners). The transport is dialed lazily, once, and kept
// until close: it is elastic (a worker lost mid-job has its tasks re-dealt to
// survivors and is redialed before the next job), it runs one job at a time
// (a queued job whose context ends leaves the queue at once), and it abandons
// a cancelled job itself, which frees the remote cores within one outer-loop
// boundary. A job that still fails (e.g. every worker lost at once) is
// retried clusterJobRetries times — each retry re-enters the transport's
// redial sweep, so a restarted fleet recovers the query without the client
// resubmitting.
type clusterBackend struct {
	addrs          []string
	workersPerNode int
	tracer         *telemetry.Tracer

	mu sync.Mutex
	tr cluster.Transport // guarded by mu

	jobRetries atomic.Int64
}

// clusterJobRetries is how many times a failed cluster job is retried before
// its error reaches the client. Worker loss mid-job is already recovered
// inside a single attempt by the elastic transport; retries cover total
// failures — every worker lost at once, or a fleet that is restarting.
const clusterJobRetries = 2

func newClusterBackend(addrs []string, workersPerNode int, tracer *telemetry.Tracer) *clusterBackend {
	if workersPerNode < 1 {
		workersPerNode = 2
	}
	return &clusterBackend{
		addrs:          append([]string(nil), addrs...),
		workersPerNode: workersPerNode,
		tracer:         tracer,
	}
}

func (b *clusterBackend) name() string { return "cluster" }

// transport returns the transport, dialing it on first use.
func (b *clusterBackend) transport() (cluster.Transport, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr == nil {
		tr, err := cluster.DialTCP(b.addrs, cluster.DialOptions{})
		if err != nil {
			return nil, fmt.Errorf("service: dialing cluster workers: %w", err)
		}
		b.tr = tr
	}
	return b.tr, nil
}

// poolStats reports cluster pool health. known is false when the transport
// is not dialed yet (pool state unknowable, not necessarily bad).
func (b *clusterBackend) poolStats() (st cluster.PoolStats, known bool) {
	b.mu.Lock()
	tr := b.tr
	b.mu.Unlock()
	if tr == nil {
		return cluster.PoolStats{Workers: len(b.addrs)}, false
	}
	return tr.PoolStats(), true
}

func (b *clusterBackend) count(ctx context.Context, bound core.Bound, g *graph.Graph, workers int, _ *telemetry.RunStats) (int64, error) {
	var lastErr error
	for attempt := 0; attempt <= clusterJobRetries; attempt++ {
		if attempt > 0 {
			b.jobRetries.Add(1)
			// Brief linear backoff before re-entering the redial sweep:
			// enough for a restarted worker to begin listening.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Duration(attempt) * 100 * time.Millisecond):
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		tr, err := b.transport()
		if err != nil {
			lastErr = err
			continue
		}
		t0 := time.Now()
		res, err := cluster.RunBound(ctx, bound, g, cluster.Options{
			WorkersPerNode: b.workersPerNode,
			Transport:      tr,
		})
		attrs := map[string]string{"attempt": fmt.Sprint(attempt)}
		if err != nil {
			attrs["error"] = err.Error()
		}
		b.tracer.Span("cluster-deal", t0, attrs)
		if err == nil {
			return res.Count, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		// The transport is kept: lost workers are already marked and the
		// next attempt's redial sweep brings back any that restarted.
		lastErr = err
	}
	return 0, fmt.Errorf("service: cluster job failed after %d attempts: %w", clusterJobRetries+1, lastErr)
}

func (b *clusterBackend) close() {
	b.mu.Lock()
	tr := b.tr
	b.tr = nil
	b.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
}
