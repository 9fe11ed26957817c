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
	// count runs the configuration to completion or ctx cancellation on the
	// executor the engine picks (the same on both backends). stats, when
	// non-nil, receives the run's per-level telemetry — local backend only,
	// since the wire protocol reduces counts, not counters.
	count(ctx context.Context, cfg *core.Config, g *graph.Graph, useIEP bool, workers int, stats *telemetry.RunStats) (int64, error)
}

// localBackend runs on the in-process engine with the job's worker budget.
type localBackend struct{}

func (localBackend) name() string { return "local" }

func (localBackend) count(ctx context.Context, cfg *core.Config, g *graph.Graph, useIEP bool, workers int, stats *telemetry.RunStats) (int64, error) {
	opt := core.RunOptions{Workers: workers, Stats: stats}
	if useIEP {
		return cfg.CountIEPCtx(ctx, g, opt)
	}
	return cfg.CountCtx(ctx, g, opt)
}

// clusterBackend dispatches counting jobs across TCP worker processes
// (cluster.Serve listeners). The transport is dialed lazily and is elastic:
// a worker lost mid-job has its tasks re-dealt to survivors and is redialed
// before the next job, so the transport survives failures and is kept across
// them. A job that still fails (e.g. every worker lost at once) is retried
// with a bounded attempt budget — each retry re-enters the transport's
// redial sweep, so a restarted fleet recovers the query without the client
// resubmitting. Only cancellation drops the transport: a cancelled job
// abandons its session by closing the connections, which both unblocks the
// master side immediately and — via the workers' disconnect stop flag —
// frees the remote cores within one outer-loop boundary. The wire protocol
// runs one job per connection set at a time, so jobs serialize on jobMu;
// admission control keeps that line short.
type clusterBackend struct {
	addrs          []string
	workersPerNode int
	retries        int // extra attempts after the first (≥ 0)
	tracer         *telemetry.Tracer

	jobMu sync.Mutex // one wire job at a time
	mu    sync.Mutex
	tr    cluster.Transport // guarded by mu
	// base accumulates recovery counters from transports that were dropped
	// (cancellation, close), so /metrics totals survive redials.
	base cluster.PoolStats // guarded by mu

	jobRetries atomic.Int64
}

func newClusterBackend(addrs []string, workersPerNode, retries int, tracer *telemetry.Tracer) *clusterBackend {
	if workersPerNode < 1 {
		workersPerNode = 2
	}
	if retries < 0 {
		retries = 0
	}
	return &clusterBackend{
		addrs:          append([]string(nil), addrs...),
		workersPerNode: workersPerNode,
		retries:        retries,
		tracer:         tracer,
	}
}

func (b *clusterBackend) name() string { return "cluster" }

// transport returns the live transport, dialing if needed.
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

// drop discards tr (closing it) so the next job redials fresh connections,
// folding its recovery counters into the running totals first.
func (b *clusterBackend) drop(tr cluster.Transport) {
	b.mu.Lock()
	if b.tr == tr {
		b.tr = nil
		b.bankLocked(tr)
	}
	b.mu.Unlock()
	tr.Close()
}

// bankLocked folds a departing transport's counters into base. Callers hold
// b.mu.
func (b *clusterBackend) bankLocked(tr cluster.Transport) {
	st := tr.PoolStats()
	b.base.Rejoins += st.Rejoins
	b.base.Redealt += st.Redealt
	b.base.Losses += st.Losses
	b.base.TaskGap.Merge(st.TaskGap)
	b.base.Redeal.Merge(st.Redeal)
}

// poolStats reports cluster pool health: the live transport's current state
// plus counters banked from dropped transports. known is false when no
// transport is currently dialed (pool state unknowable, not necessarily bad).
func (b *clusterBackend) poolStats() (st cluster.PoolStats, known bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st = b.base
	// Detach the histogram buckets: st is a shallow copy of base, and the
	// merges below must not rewrite base's backing arrays.
	st.TaskGap = st.TaskGap.Clone()
	st.Redeal = st.Redeal.Clone()
	st.Workers = len(b.addrs)
	if b.tr == nil {
		return st, false
	}
	cur := b.tr.PoolStats()
	st.Workers = cur.Workers
	st.Live = cur.Live
	st.Rejoins += cur.Rejoins
	st.Redealt += cur.Redealt
	st.Losses += cur.Losses
	st.LastJob = cur.LastJob
	st.TaskGap.Merge(cur.TaskGap)
	st.Redeal.Merge(cur.Redeal)
	return st, true
}

func (b *clusterBackend) count(ctx context.Context, cfg *core.Config, g *graph.Graph, useIEP bool, workers int, _ *telemetry.RunStats) (int64, error) {
	b.jobMu.Lock()
	defer b.jobMu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= b.retries; attempt++ {
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
		type outcome struct {
			res *cluster.Result
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			t0 := time.Now()
			res, err := cluster.Run(cfg, g, cluster.Options{
				WorkersPerNode: b.workersPerNode,
				UseIEP:         useIEP,
				Transport:      tr,
			})
			attrs := map[string]string{"attempt": fmt.Sprint(attempt)}
			if err != nil {
				attrs["error"] = err.Error()
			}
			b.tracer.Span("cluster-deal", t0, attrs)
			ch <- outcome{res, err}
		}()
		select {
		case o := <-ch:
			if o.err != nil {
				// The transport is kept: lost workers are already marked and
				// the next attempt's redial sweep brings back any that
				// restarted.
				lastErr = o.err
				continue
			}
			return o.res.Count, nil
		case <-ctx.Done():
			// Abandon the session: closing the connections errors the
			// in-flight Run and tells every worker (via its disconnect stop
			// flag) to abandon its queue.
			b.drop(tr)
			<-ch // reap the runner goroutine; it fails fast on the closed conns
			return 0, ctx.Err()
		}
	}
	return 0, fmt.Errorf("service: cluster job failed after %d attempts: %w", b.retries+1, lastErr)
}

func (b *clusterBackend) close() {
	b.mu.Lock()
	tr := b.tr
	b.tr = nil
	if tr != nil {
		b.bankLocked(tr)
	}
	b.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
}
