package service

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrQueueFull is returned when a query arrives while MaxConcurrent jobs run
// and MaxQueue more already wait — the admission controller's load-shedding
// signal, surfaced to HTTP clients as 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// admission is the service's one gate: at most len(slots) jobs hold run
// slots at once, at most maxQueue more wait for one (in FIFO order — blocked
// channel sends are granted in arrival order), and anything beyond is
// rejected immediately rather than queued into oblivion. Each slot carries
// the job's worker budget, at most perSlot workers; Options.normalize keeps
// slots × perSlot ≤ TotalWorkers, so granted budgets can never oversubscribe
// the machine and no second gate over workers is needed.
type admission struct {
	slots    chan struct{}
	perSlot  int
	maxQueue int64
	waiting  atomic.Int64
	busy     atomic.Int64 // sum of the budgets held by granted slots
}

func newAdmission(slots, perSlot, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, slots),
		perSlot:  perSlot,
		maxQueue: int64(maxQueue),
	}
}

// acquire takes a free run slot immediately when one exists; otherwise it
// joins the waiting line (failing fast with ErrQueueFull at capacity) until
// a slot frees or ctx cancels. It returns the job's worker budget: want
// capped at the slot's budget, or the whole slot budget when want < 1.
func (a *admission) acquire(ctx context.Context, want int) (int, error) {
	workers := a.perSlot
	if want > 0 && want < workers {
		workers = want
	}
	select {
	case a.slots <- struct{}{}:
		a.busy.Add(int64(workers))
		return workers, nil
	default:
	}
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		return 0, ErrQueueFull
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.busy.Add(int64(workers))
		return workers, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// release returns a slot granted with the given worker budget. The budget
// leaves busy before the slot frees, so busy never exceeds the slots held
// times perSlot.
func (a *admission) release(workers int) {
	a.busy.Add(-int64(workers))
	<-a.slots
}

// queueDepth is the number of jobs waiting for a run slot.
func (a *admission) queueDepth() int { return int(a.waiting.Load()) }

// running is the number of granted run slots.
func (a *admission) running() int { return len(a.slots) }

// busyWorkers is the sum of the worker budgets granted slots hold.
func (a *admission) busyWorkers() int { return int(a.busy.Load()) }
