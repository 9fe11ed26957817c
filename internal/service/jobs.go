package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Job states. A job is queued from creation until the admission controller
// grants it a run slot (which carries its worker budget) and it is planned,
// running until its backend returns, and then exactly one of done / failed /
// canceled. An explain job finishes without running.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobInfo is the externally visible record of one query job (the /jobs
// payload). Fields are snapshots; ask again for fresh ones.
type JobInfo struct {
	ID       string  `json:"id"`
	Kind     string  `json:"kind"` // count | enumerate | explain
	Graph    string  `json:"graph"`
	Pattern  string  `json:"pattern"`
	Backend  string  `json:"backend,omitempty"`
	Status   string  `json:"status"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Count    int64   `json:"count,omitempty"`
	Error    string  `json:"error,omitempty"`
	Created  string  `json:"created"`
	QueueSec float64 `json:"queue_seconds"`
	RunSec   float64 `json:"run_seconds,omitempty"`
}

// job is the internal record behind a JobInfo.
type job struct {
	id      string
	kind    string
	graph   string
	pattern string

	mu       sync.Mutex
	backend  string
	status   string
	cacheHit bool
	workers  int
	count    int64
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:       j.id,
		Kind:     j.kind,
		Graph:    j.graph,
		Pattern:  j.pattern,
		Backend:  j.backend,
		Status:   j.status,
		CacheHit: j.cacheHit,
		Workers:  j.workers,
		Count:    j.count,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	switch {
	case j.started.IsZero() && !j.finished.IsZero():
		// Finished without running (shed, plan error, cancelled in queue):
		// the queue time is frozen at the terminal moment.
		info.QueueSec = j.finished.Sub(j.created).Seconds()
	case j.started.IsZero():
		info.QueueSec = time.Since(j.created).Seconds()
	default:
		info.QueueSec = j.started.Sub(j.created).Seconds()
		if j.finished.IsZero() {
			info.RunSec = time.Since(j.started).Seconds()
		} else {
			info.RunSec = j.finished.Sub(j.started).Seconds()
		}
	}
	return info
}

// setRunning transitions queued → running and records the grant.
func (j *job) setRunning(backend string, workers int, cacheHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = JobRunning
	j.backend = backend
	j.workers = workers
	j.cacheHit = cacheHit
	j.started = time.Now()
}

// finish records the terminal state. A context cancellation maps to
// JobCanceled, any other error to JobFailed.
func (j *job) finish(count int64, err error) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.count = count
	j.err = err
	switch {
	case err == nil:
		j.status = JobDone
	case err == context.Canceled || err == context.DeadlineExceeded:
		j.status = JobCanceled
	default:
		j.status = JobFailed
	}
	return j.status
}

// Cancel fires the job's context cancellation (idempotent; a no-op once the
// cancel func is cleared after completion).
func (j *job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// jobTable tracks every live job plus the last keepFinishedJobs finished
// ones, so /jobs answers stay useful without growing forever.
type jobTable struct {
	mu       sync.Mutex
	next     int64
	jobs     map[string]*job
	finished []string // finished ids in completion order, pruned FIFO
}

// keepFinishedJobs bounds the finished-job history /jobs reports; explain
// jobs take entries in it like count and enumerate jobs.
const keepFinishedJobs = 256

func newJobTable() *jobTable {
	return &jobTable{jobs: map[string]*job{}}
}

// create registers a new queued job and returns it with its cancelable
// context.
func (t *jobTable) create(ctx context.Context, kind, graphName, patternName string) (*job, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	t.mu.Lock()
	t.next++
	j := &job{
		id:      fmt.Sprintf("j%d", t.next),
		kind:    kind,
		graph:   graphName,
		pattern: patternName,
		status:  JobQueued,
		created: time.Now(),
		cancel:  cancel,
	}
	t.jobs[j.id] = j
	t.mu.Unlock()
	return j, ctx
}

// retire moves a job into the finished ring, pruning the oldest beyond the
// keep bound, and releases its context resources.
func (t *jobTable) retire(j *job) {
	j.mu.Lock()
	if cancel := j.cancel; cancel != nil {
		j.cancel = nil
		defer cancel() // release the context's resources without marking canceled
	}
	j.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished = append(t.finished, j.id)
	for len(t.finished) > keepFinishedJobs {
		delete(t.jobs, t.finished[0])
		t.finished = t.finished[1:]
	}
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// list snapshots every tracked job, newest first.
func (t *jobTable) list() []JobInfo {
	t.mu.Lock()
	jobs := make([]*job, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.info()
	}
	sort.Slice(out, func(a, b int) bool {
		// ids are "j<seq>": compare numerically via length then lexically.
		if len(out[a].ID) != len(out[b].ID) {
			return len(out[a].ID) > len(out[b].ID)
		}
		return out[a].ID > out[b].ID
	})
	return out
}
