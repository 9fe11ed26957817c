package cluster

import (
	"context"
	"time"

	"graphpi/internal/taskpool"
)

// NewFaultyTransport wraps a transport with deterministic fault injection:
// every multi-rank job it runs has one rank (failRank, or the last rank when
// failRank is out of range) die after completing afterTasks tasks. The
// wrapped transport is otherwise transparent — PoolStats and Close
// delegate — so the conformance suite can run every behavioral test across
// {in-process, tcp} × {healthy, faulty} and assert that recovered jobs stay
// bit-identical to single-node counts.
//
// The death itself happens in the worker (Job.FailRank / Job.FailAfterTasks):
// it closes its connection abruptly after acknowledging its afterTasks-th
// task, and the master re-grants what it still held to the survivors.
// Single-rank jobs are never injected — there is no survivor to recover on.
func NewFaultyTransport(inner Transport, failRank, afterTasks int) Transport {
	return &faultyTransport{inner: inner, failRank: failRank, afterTasks: afterTasks}
}

type faultyTransport struct {
	inner      Transport
	failRank   int
	afterTasks int
}

func (f *faultyTransport) PoolStats() PoolStats { return f.inner.PoolStats() }

func (f *faultyTransport) Close() error { return f.inner.Close() }

func (f *faultyTransport) run(ctx context.Context, job *Job, cut func(int) []taskpool.Range) ([]RankResult, int, time.Duration, error) {
	if f.afterTasks > 0 {
		injected := *job
		injected.FailAfterTasks = f.afterTasks
		injected.FailRank = f.failRank
		job = &injected
	}
	return f.inner.run(ctx, job, cut)
}
