package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
)

// This file is the master. Each rank is one worker link — a TCP connection to
// a worker process, or a net.Pipe to an in-process one (transport.go) — and
// ranks talk only to the master, never to each other: a star, as in the
// paper's master/communication-thread design.
//
// Scheduling: the master keeps the undealt tasks in one queue and grants them
// on demand. grant tops every live rank up to its worker count; it runs at job
// start, after every acknowledgement and after every loss. A rank therefore
// never idles while the queue holds work, and a straggler holds only the tasks
// its workers are running. There is no prefetch: a task granted ahead of need
// would wait behind its rank's current task, however long that one runs — on
// a degree-ordered graph the heaviest tasks come first, so the two heaviest
// would run one after the other — to save one grant round trip per task
// (DESIGN.md §5 has the measurement).
//
// Fault tolerance: held[r] is the exact set of tasks granted to rank r and not
// yet acknowledged. Workers acknowledge every completed task with its raw
// count delta; the master banks the deltas. When a rank is lost (its
// connection errors), its banked counts stand in for its result and held[r]
// goes back to the front of the queue, where the next grant hands it to the
// survivors — tasks are independent outer-loop ranges, so re-execution
// re-earns exactly the unacknowledged counts and totals stay bit-identical. A
// lost link is not fatal to the pool either: the next job's sweep redials it
// with capped exponential backoff, so a restarted worker rejoins without
// operator action.
//
// Sessions: a set of worker connections carries one job at a time, and the
// only way to abandon a job is to close its connections. The pool enforces
// both: run holds the job lock from the sweep to the last result, so
// concurrent callers queue (a cancelled waiter leaves at once), and a job
// whose context ends closes its own connections. The workers stop on the
// disconnect; the links are abandoned, not lost, and the next job's sweep
// redials them without moving the loss, rejoin or redeal counters.
//
// Termination: every task is in exactly one place — the queue, or held[r] of
// one live rank — and only its acknowledgement removes it. The job's work is
// therefore done exactly when the queue is empty and no live rank holds a
// task; the master then sends jobDone, and each rank answers with its result.
// A rank lost after jobDone holds nothing, so its banked counts are complete.

// DialOptions tunes DialTCP.
type DialOptions struct {
	// Timeout bounds each worker dial + handshake (0 → 10s).
	Timeout time.Duration
}

// PoolStats is a snapshot of a pool's health.
type PoolStats struct {
	// Workers is the configured pool size (dialed ranks).
	Workers int
	// Live is the number of currently connected workers.
	Live int
	// Rejoins counts successful redials of lost workers.
	Rejoins int64
	// Redealt counts tasks lost ranks held unacknowledged, which went back to
	// the queue for the survivors.
	Redealt int64
	// Losses counts rank-loss events (disconnects and write failures). A
	// cancelled job's closed connections are not losses.
	Losses int64
	// TaskGap observes per-rank inter-acknowledgement gaps — a master-side
	// proxy for task execution time that needs no wire changes (acks carry
	// no timing). Redeal observes, per loss, the time until the survivors
	// hold every task the lost rank returned to the queue.
	TaskGap telemetry.HistogramSnapshot
	Redeal  telemetry.HistogramSnapshot
}

// pool is the Transport: worker links running one job at a time until
// closed. A lost worker only shrinks the pool: its link is redialed on later
// jobs and the worker rejoins when it comes back.
type pool struct {
	opt    DialOptions
	closed atomic.Bool
	// jobLock holds one token while a job runs (run): a channel, so that a
	// waiter can leave when its context ends.
	jobLock chan struct{}

	mu sync.Mutex // guards each link's lifecycle state (lost/stale/attempts/conn swaps)
	// links is append-only during dialPool (pre-publication) and immutable
	// after; concurrent readers need no lock for the slice itself.
	links []*workerLink

	rejoins atomic.Int64
	redealt atomic.Int64
	losses  atomic.Int64

	// Latency histograms (lifetime, like the counters above). Histogram is
	// internally synchronized, so job loops observe without holding mu.
	hTaskGap telemetry.Histogram
	hRedeal  telemetry.Histogram
}

// endpoint names a rank and says how to open a connection to it.
type endpoint struct {
	addr string
	dial func(timeout time.Duration) (net.Conn, error)
}

// workerLink is one master↔worker connection slot. When lost, the slot keeps
// its endpoint and backoff state so the pool can redial it.
type workerLink struct {
	endpoint
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex

	// advertised worker-count override, graph fingerprint and has-graph
	// flag from the welcome frame (hasGraph also flips when a snapshot push
	// completes).
	advWorkers int
	fp         graphFingerprint
	hasGraph   bool

	// Redial state; lockcheck enforces the guard annotations below. A stale
	// link's connection was closed by a cancelled job: the worker is not
	// lost, and the next sweep redials it.
	lost     bool      // guarded by the pool's mu
	stale    bool      // guarded by the pool's mu
	attempts int       // guarded by the pool's mu
	nextTry  time.Time // guarded by the pool's mu
}

func (l *workerLink) write(typ uint8, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return writeFrame(l.conn, typ, payload)
}

// DialTCP connects to worker processes (cluster.Serve listeners) at addrs
// and returns a Transport running jobs across them: one rank per worker.
// Workers may join cold (started without a graph snapshot); the master
// pushes the fingerprint-verified view to them before their first job.
func DialTCP(addrs []string, opt DialOptions) (Transport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: DialTCP needs at least one worker address")
	}
	endpoints := make([]endpoint, len(addrs))
	for i, addr := range addrs {
		endpoints[i] = endpoint{addr: addr, dial: func(timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}}
	}
	t, err := dialPool(endpoints, opt)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// dialPool connects to every endpoint and checks that the workers holding
// replicas hold the same one.
func dialPool(endpoints []endpoint, opt DialOptions) (*pool, error) {
	t := &pool{opt: opt, jobLock: make(chan struct{}, 1)}
	for _, ep := range endpoints {
		link, err := dialLink(ep, t.timeout())
		if err != nil {
			_ = t.Close() // dial error takes precedence over teardown
			return nil, fmt.Errorf("cluster: worker %s: %w", ep.addr, err)
		}
		t.links = append(t.links, link)
	}
	// Catching a divergent worker set here beats a per-job rejection later.
	// Cold workers are exempt — they will receive the master's view.
	var ref *workerLink
	for _, l := range t.links {
		if !l.hasGraph {
			continue
		}
		if ref == nil {
			ref = l
			continue
		}
		if err := ref.fp.check(l.fp); err != nil {
			_ = t.Close() // mismatch error takes precedence over teardown
			return nil, fmt.Errorf("cluster: workers %s and %s hold different replicas: %w",
				ref.addr, l.addr, err)
		}
	}
	return t, nil
}

func (t *pool) timeout() time.Duration {
	if t.opt.Timeout > 0 {
		return t.opt.Timeout
	}
	return handshakeTimeout
}

// backoff returns the wait before redial attempt n (1-based) of a lost
// worker: the first retry is immediate, then delays double from
// redialBackoff up to redialBackoffMax.
func backoff(attempts int) time.Duration {
	d := redialBackoff
	for i := 1; i < attempts && d < redialBackoffMax; i++ {
		d *= 2
	}
	return min(d, redialBackoffMax)
}

// markLost retires a link's connection: the slot stays in the pool and is
// redialed (immediately on the next job, then with capped exponential
// backoff) until the worker comes back.
func (t *pool) markLost(l *workerLink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l.lost {
		return
	}
	l.lost = true
	l.attempts = 0
	l.nextTry = time.Time{} // first retry is immediate
	t.losses.Add(1)
	_ = l.conn.Close() // link is being retired; the redial path owns recovery
}

// sweep is the pool's supervision point, run under the job lock at the start
// of every job: it redials the links a cancelled job abandoned and the lost
// links due for a retry, and returns the live links with their worker total
// for a job requesting workersPerRank per rank (each worker's advertised
// override, or workersPerRank for those that defer to the master).
func (t *pool) sweep(workersPerRank int) (live []*workerLink, totalWorkers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil, 0
	}
	now := time.Now()
	for _, l := range t.links {
		if l.stale || (l.lost && !now.Before(l.nextTry)) {
			if nl, err := dialLink(l.endpoint, t.timeout()); err == nil {
				if l.lost {
					t.rejoins.Add(1)
				}
				l.conn, l.br = nl.conn, nl.br
				l.advWorkers, l.fp, l.hasGraph = nl.advWorkers, nl.fp, nl.hasGraph
				l.lost, l.stale, l.attempts = false, false, 0
			} else {
				if l.stale {
					// The worker went away while its link was down.
					l.lost, l.stale = true, false
					t.losses.Add(1)
				}
				l.attempts++
				l.nextTry = now.Add(backoff(l.attempts))
			}
		}
		if !l.lost {
			live = append(live, l)
			totalWorkers += l.workers(workersPerRank)
		}
	}
	return live, totalWorkers
}

// workers is the link's worker goroutine count for a job requesting
// workersPerRank per rank.
func (l *workerLink) workers(workersPerRank int) int {
	if l.advWorkers > 0 {
		return l.advWorkers
	}
	return workersPerRank
}

// PoolStats reports the pool's health counters.
func (t *pool) PoolStats() PoolStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := PoolStats{
		Workers: len(t.links),
		Rejoins: t.rejoins.Load(),
		Redealt: t.redealt.Load(),
		Losses:  t.losses.Load(),
		TaskGap: t.hTaskGap.Snapshot(),
		Redeal:  t.hRedeal.Snapshot(),
	}
	for _, l := range t.links {
		if !l.lost {
			st.Live++
		}
	}
	return st
}

func (t *pool) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, l := range t.links {
		if l.lost || l.stale {
			continue
		}
		if err := l.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// resetLive retires every live link. Used when a job setup fails partway:
// some workers already received job frames, so the streams are no longer
// aligned to job boundaries; the next job redials everyone cleanly.
func (t *pool) resetLive() {
	t.mu.Lock()
	links := append([]*workerLink(nil), t.links...)
	t.mu.Unlock()
	for _, l := range links {
		t.markLost(l)
	}
}

// dialLink opens a connection to ep and runs the hello/welcome handshake.
func dialLink(ep endpoint, timeout time.Duration) (*workerLink, error) {
	conn, err := ep.dial(timeout)
	if err != nil {
		return nil, err
	}
	l := &workerLink{endpoint: ep, conn: conn, br: bufio.NewReader(conn)}
	// Every failure below abandons the half-open connection; the handshake
	// error takes precedence over the Close result.
	fail := func(err error) (*workerLink, error) {
		_ = conn.Close()
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return fail(err)
	}
	if err := l.write(msgHello, encodeHello()); err != nil {
		return fail(err)
	}
	typ, payload, err := readFrame(l.br)
	if err != nil {
		return fail(fmt.Errorf("handshake: %w", err))
	}
	switch typ {
	case msgWelcome:
	case msgError:
		return fail(fmt.Errorf("worker rejected handshake: %s", payload))
	default:
		return fail(fmt.Errorf("handshake: unexpected frame type %d", typ))
	}
	l.advWorkers, l.fp, l.hasGraph, err = decodeWelcome(payload)
	if err != nil {
		return fail(err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fail(err)
	}
	return l, nil
}

// snapChunk is the snapshot streaming chunk size (well under maxFrame).
const snapChunk = 1 << 20

// pushSnapshot streams the job graph's binary snapshot to a cold link and
// verifies the fingerprint the worker reports after loading it. The fatal
// return distinguishes protocol-level failures (rejection, wrong
// fingerprint — misconfiguration that retrying will not fix) from IO
// failures (the worker crashed; recoverable by retiring just that link).
func (t *pool) pushSnapshot(l *workerLink, snap []byte, g *graph.Graph) (err error, fatal bool) {
	if err := l.write(msgSnapBegin, encodeSnapBegin(int64(len(snap)))); err != nil {
		return err, false
	}
	for off := 0; off < len(snap); off += snapChunk {
		end := off + snapChunk
		if end > len(snap) {
			end = len(snap)
		}
		if err := l.write(msgSnapData, snap[off:end]); err != nil {
			return err, false
		}
	}
	if err := l.write(msgSnapEnd, nil); err != nil {
		return err, false
	}
	typ, payload, err := readFrame(l.br)
	if err != nil {
		return fmt.Errorf("reading snapshot reply: %w", err), false
	}
	switch typ {
	case msgSnapOK:
	case msgError:
		return fmt.Errorf("worker rejected snapshot: %s", payload), true
	default:
		return fmt.Errorf("unexpected snapshot reply type %d", typ), true
	}
	fp, err := decodeSnapOK(payload)
	if err != nil {
		return err, true
	}
	if err := fingerprintOf(g).check(fp); err != nil {
		return fmt.Errorf("pushed snapshot verifies wrong: %w", err), true
	}
	l.fp, l.hasGraph = fp, true
	return nil, false
}

// run is the Transport's job entry point (see Transport.run).
func (t *pool) run(ctx context.Context, job *Job, cut func(int) []taskpool.Range) ([]RankResult, int, time.Duration, error) {
	select {
	case t.jobLock <- struct{}{}:
		defer func() { <-t.jobLock }()
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err // cancelled as the lock came free
	}
	links, workers := t.sweep(job.WorkersPerRank)
	switch {
	case t.closed.Load():
		return nil, 0, 0, fmt.Errorf("cluster: transport closed")
	case len(links) == 0:
		return nil, 0, 0, fmt.Errorf("cluster: no live workers (pool of %d, all lost)", len(t.links))
	}
	tasks := cut(workers)
	if len(tasks) == 0 {
		return make([]RankResult, len(links)), 0, 0, nil // an empty task space: nothing to ship
	}
	// A cancelled job is abandoned the only way the protocol has: by closing
	// its connections, which also stops the workers. The closure holds the
	// connections, not the links, which the next job's sweep rewrites.
	conns := make([]net.Conn, len(links))
	for i, l := range links {
		conns[i] = l.conn
	}
	stop := context.AfterFunc(ctx, func() {
		for _, c := range conns {
			_ = c.Close() // abandoning the job; the workers see a disconnect
		}
	})
	partials, elapsed, err := t.deal(ctx, job, links, tasks)
	stop()
	if ctx.Err() != nil {
		t.abandon(links)
		return nil, 0, 0, ctx.Err()
	}
	return partials, len(tasks), elapsed, err
}

// abandon retires the links of a cancelled job. Their connections close, but
// the workers are not lost: the next sweep redials them, and no loss, rejoin
// or redeal is counted.
func (t *pool) abandon(links []*workerLink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range links {
		if !l.lost {
			l.stale = true
			_ = l.conn.Close() // the link is redialed; a second close is harmless
		}
	}
}

// setup ships the job to the live links (session rank = index) and collects
// the acceptances. It returns which links were lost on the way.
//
// Job setup tolerates crashes the same way the job itself does: an IO failure
// on any one link (worker died between jobs, or dies while setup is in
// flight) retires that link, and the job proceeds on the survivors — a rank
// lost during setup simply never receives a grant. Only protocol-level
// rejections (replica mismatch, malformed replies) unwind the whole job: those
// mean misconfiguration, and peers that already accepted are waiting for
// grants that will never come, so every live link is retired and the next
// job redials cleanly. An IO failure after ctx ended is the cancellation's
// own close, not a loss.
func (t *pool) setup(ctx context.Context, job *Job, live []*workerLink) ([]bool, error) {
	nranks := len(live)
	lost := make([]bool, nranks)
	drop := func(i int) {
		if ctx.Err() == nil {
			t.markLost(live[i])
		}
		lost[i] = true
	}
	// Cold workers first: push the snapshot so a worker that joined without
	// a local replica can serve this graph's jobs.
	var snap []byte
	for i, l := range live {
		if l.hasGraph {
			continue
		}
		if snap == nil {
			var buf bytes.Buffer
			if err := graph.WriteBinary(&buf, job.Graph); err != nil {
				return nil, fmt.Errorf("cluster: serializing snapshot for cold workers: %w", err)
			}
			snap = buf.Bytes()
		}
		if err, fatal := t.pushSnapshot(l, snap, job.Graph); err != nil {
			drop(i)
			if fatal {
				return nil, fmt.Errorf("cluster: worker %s: snapshot push: %w", l.addr, err)
			}
		}
	}
	for i, l := range live {
		if lost[i] {
			continue
		}
		if err := l.write(msgJob, encodeJob(jobSpecOf(job, i, nranks))); err != nil {
			drop(i)
		}
	}
	accepted := 0
	for i, l := range live {
		if lost[i] {
			continue
		}
		typ, payload, err := readFrame(l.br)
		if err != nil {
			drop(i)
			continue
		}
		switch typ {
		case msgJobOK:
			accepted++
		case msgError:
			t.resetLive()
			return nil, fmt.Errorf("cluster: worker %s rejected job: %s", l.addr, payload)
		default:
			t.resetLive()
			return nil, fmt.Errorf("cluster: worker %s: unexpected job reply type %d", l.addr, typ)
		}
	}
	if accepted == 0 {
		return nil, fmt.Errorf("cluster: every worker was lost during job setup")
	}
	return lost, nil
}

// deal sets the job up on links and runs it to its last result, granting
// tasks on demand.
func (t *pool) deal(ctx context.Context, job *Job, links []*workerLink, tasks []taskpool.Range) ([]RankResult, time.Duration, error) {
	lost, err := t.setup(ctx, job, links)
	if err != nil {
		return nil, 0, err
	}
	n := len(links)
	j := &jobRun{
		t:       t,
		ctx:     ctx,
		links:   links,
		workers: make([]int, n),
		queue:   tasks,
		held:    make([][]taskpool.Range, n),
		alive:   make([]bool, n),
		done:    make([]bool, n),
		results: make([]RankResult, n),
		banked:  make([]int64, n),
		acked:   make([]int64, n),
		lastAck: make([]time.Time, n),
		quit:    make(chan struct{}),
	}
	inflight := 0
	for r, l := range links {
		j.workers[r] = l.workers(job.WorkersPerRank)
		j.alive[r], j.done[r] = !lost[r], lost[r]
		// A rank holds at most its workers' worth of granted tasks, so at
		// most that many unconsumed acks, plus its result or its error:
		// readers never wait on the job loop.
		inflight += j.workers[r] + 1
	}
	j.events = make(chan rankEvent, inflight)
	defer close(j.quit)

	start := time.Now()
	for r := range links {
		j.lastAck[r] = start
		if j.alive[r] {
			go j.readLoop(r, links[r].br)
		}
	}
	j.grant()
	for j.err == nil && (len(j.queue) > 0 || j.holding()) {
		j.next()
	}
	if j.err == nil {
		j.jobDone = true
		for r, l := range links {
			if j.alive[r] {
				if err := l.write(msgJobDone, nil); err != nil {
					j.lose(r, err)
				}
			}
		}
		for j.err == nil && !j.allDone() {
			j.next()
		}
	}
	if j.err != nil {
		return nil, 0, fmt.Errorf("cluster: %w", j.err)
	}
	return j.results, time.Since(start), nil
}

// rankEvent is one worker frame routed to the job loop, tagged with its rank.
// at is the frame's arrival time, stamped in readLoop so queueing in the job
// loop does not skew the task-gap histogram.
type rankEvent struct {
	rank  int
	kind  uint8 // msgAck or msgResult; 0 for errors
	task  taskpool.Range
	delta int64
	res   RankResult
	err   error
	at    time.Time
}

// jobRun is the master's state for one job. Only the job loop in run touches
// it; each rank's readLoop feeds it through events.
type jobRun struct {
	t       *pool
	ctx     context.Context    // ending it closes the links (pool.run)
	links   []*workerLink      // session rank = index
	workers []int              // worker goroutines per rank
	queue   []taskpool.Range   // undealt tasks; the front is granted next
	held    [][]taskpool.Range // per rank: granted, not yet acknowledged
	alive   []bool
	done    []bool // result received, or synthesized for a lost rank
	results []RankResult
	banked  []int64 // acknowledged raw count deltas per rank
	acked   []int64 // acknowledged tasks per rank
	lastAck []time.Time
	jobDone bool // jobDone sent: results may arrive
	err     error

	events chan rankEvent
	quit   chan struct{} // closed when run returns; releases blocked readers

	// redealSince is when the oldest returned task still in the queue came
	// back; redealBehind is how many undealt tasks sat behind the returned
	// ones then, so all of them have been granted once the queue is no
	// longer than that.
	redealSince  time.Time
	redealBehind int
}

// readLoop routes one rank's frames from br into the job loop. A rank's
// result is its last frame of the job (it is only sent after jobDone), so the
// loop exits on it, leaving the connection quiet for the next job's setup. br
// is passed in rather than read from the link, which a later job's redial may
// rewrite while this goroutine still runs.
func (j *jobRun) readLoop(r int, br *bufio.Reader) {
	l := j.links[r]
	send := func(ev rankEvent) bool {
		ev.rank = r
		select {
		case j.events <- ev:
			return true
		case <-j.quit:
			return false
		}
	}
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			send(rankEvent{err: fmt.Errorf("worker %s disconnected: %w", l.addr, err)})
			return
		}
		switch typ {
		case msgAck:
			task, delta, err := decodeAck(payload)
			if err != nil {
				send(rankEvent{err: err})
				return
			}
			if !send(rankEvent{kind: msgAck, task: task, delta: delta, at: time.Now()}) {
				return
			}
		case msgResult:
			res, err := decodeResult(payload)
			if err != nil {
				send(rankEvent{err: err})
				return
			}
			send(rankEvent{kind: msgResult, res: res})
			return
		default:
			send(rankEvent{err: fmt.Errorf("worker %s: unexpected mid-job frame type %d", l.addr, typ)})
			return
		}
	}
}

// next handles the next rank event, or stops the job when its context ends.
func (j *jobRun) next() {
	select {
	case ev := <-j.events:
		j.handle(ev)
	case <-j.ctx.Done():
		j.err = j.ctx.Err()
	}
}

// handle folds one rank event into the job state and grants what it freed.
func (j *jobRun) handle(ev rankEvent) {
	r := ev.rank
	if !j.alive[r] {
		return // a retired rank's late frames
	}
	switch {
	case ev.err != nil:
		j.lose(r, ev.err)
	case ev.kind == msgAck:
		i := slices.Index(j.held[r], ev.task)
		if i < 0 {
			j.lose(r, fmt.Errorf("worker %s acknowledged task %v it does not hold", j.links[r].addr, ev.task))
			break
		}
		j.held[r] = slices.Delete(j.held[r], i, i+1)
		j.banked[r] += ev.delta
		j.acked[r]++
		j.t.hTaskGap.Observe(ev.at.Sub(j.lastAck[r]))
		j.lastAck[r] = ev.at
	case ev.kind == msgResult:
		if !j.jobDone {
			j.lose(r, fmt.Errorf("worker %s sent its result before jobDone", j.links[r].addr))
			break
		}
		j.results[r] = ev.res
		j.done[r] = true
	}
	j.grant()
}

// grant tops every live rank up to its worker count from the front of the
// queue.
func (j *jobRun) grant() {
	for r, l := range j.links {
		if !j.alive[r] || len(j.queue) == 0 {
			continue
		}
		n := min(j.workers[r]-len(j.held[r]), len(j.queue))
		if n <= 0 {
			continue
		}
		batch := j.queue[:n]
		if err := l.write(msgTasks, encodeTasks(batch)); err != nil {
			// The loss returns tasks to the queue, which ranks already
			// visited may take: start over.
			j.lose(r, err)
			j.grant()
			return
		}
		j.held[r] = append(j.held[r], batch...)
		j.queue = j.queue[n:]
	}
	if !j.redealSince.IsZero() && len(j.queue) <= j.redealBehind {
		j.t.hRedeal.ObserveSince(j.redealSince)
		j.redealSince = time.Time{}
	}
}

// lose retires rank r: its connection closes (making the loss visible to the
// pool's redial sweep), its banked counts become its result, and the tasks it
// held go back to the front of the queue. The job fails only when tasks
// remain and no live rank is left to run them. After the job's context ended,
// a failing link is the cancellation's own close: the job stops, and nothing
// is counted as lost.
func (j *jobRun) lose(r int, cause error) {
	j.alive[r] = false
	if err := j.ctx.Err(); err != nil {
		j.err = err
		return
	}
	j.t.markLost(j.links[r])
	if !j.done[r] {
		j.done[r] = true
		j.results[r] = RankResult{Raw: j.banked[r], Stats: NodeStats{TasksRun: j.acked[r]}}
	}
	if n := len(j.held[r]); n > 0 {
		if j.redealSince.IsZero() {
			j.redealSince, j.redealBehind = time.Now(), len(j.queue)
		}
		j.queue = append(j.held[r], j.queue...)
		j.held[r] = nil
		j.t.redealt.Add(int64(n))
	}
	if len(j.queue) > 0 && !slices.Contains(j.alive, true) {
		j.err = fmt.Errorf("every worker was lost with %d tasks unfinished (last: %w)", len(j.queue), cause)
	}
}

// holding reports whether any rank holds an unacknowledged task (a lost
// rank's tasks are back in the queue).
func (j *jobRun) holding() bool {
	return slices.ContainsFunc(j.held, func(h []taskpool.Range) bool { return len(h) > 0 })
}

func (j *jobRun) allDone() bool {
	return !slices.Contains(j.done, false)
}
