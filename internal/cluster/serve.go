package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/taskpool"
)

// This file is the worker: a rank that holds a full replica of the data graph
// (loaded from a shared GPiCSR snapshot, or pulled from the master over the
// wire when the worker starts cold), accepts master connections, and executes
// the same compiled configurations the master planned. A worker process
// serves TCP masters through Serve; an in-process rank runs serveConn on its
// end of a net.Pipe (transport.go). Within a job, the connection reader plays
// the paper's communication thread — it fills the rank's local queue with the
// master's grants — and the worker goroutines drain that queue.

// ServeOptions configures a worker process.
type ServeOptions struct {
	// Workers overrides the per-job worker goroutine count requested by
	// the master (0 → honor the job's WorkersPerRank). Set it when worker
	// machines have heterogeneous core counts.
	Workers int
	// Logf, if non-nil, receives connection lifecycle messages and one
	// line per job when the rank acknowledges its first task.
	Logf func(format string, args ...any)
}

func (o ServeOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// handshakeTimeout bounds the hello/welcome exchange so a port scanner or a
// stalled peer cannot pin a connection handler forever. Jobs themselves run
// without deadlines — counting can legitimately take minutes.
const handshakeTimeout = 10 * time.Second

// redialBackoff is the delay before the second redial attempt of a lost
// worker (the first is immediate); the delay doubles per consecutive failure
// up to redialBackoffMax.
const (
	redialBackoff    = 250 * time.Millisecond
	redialBackoffMax = 15 * time.Second
)

// graphHolder is the worker's replica slot, shared by every connection the
// worker serves. A worker started cold (nil graph) advertises hasGraph=false
// and fills the slot when a master pushes a snapshot; the replica then
// persists across connections, so a redialing master does not re-push.
type graphHolder struct {
	mu sync.Mutex
	g  *graph.Graph // guarded by mu
}

func (h *graphHolder) get() *graph.Graph {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.g
}

func (h *graphHolder) set(g *graph.Graph) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.g = g
}

// Serve accepts master connections on ln and executes their counting jobs
// against g, the worker's replica of the data graph. g may be nil: the
// worker then joins cold and waits for a master to push the snapshot before
// its first job. Serve blocks until ln is closed (which is the idiomatic
// shutdown: close the listener, in-flight jobs fail their masters'
// connections). Each connection is served on its own goroutine, so a worker
// can in principle serve several masters, though they compete for the same
// cores.
func Serve(ln net.Listener, g *graph.Graph, opt ServeOptions) error {
	holder := &graphHolder{g: g}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			if err := serveConn(conn, holder, opt); err != nil {
				opt.logf("cluster worker: %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serveConn handles one master for its lifetime: handshake, then a sequence
// of snapshot pushes and jobs. A clean disconnect (EOF between jobs) returns
// nil.
func serveConn(conn net.Conn, holder *graphHolder, opt ServeOptions) error {
	br := bufio.NewReader(conn)
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	typ, payload, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("expected hello, got frame type %d", typ)
	}
	if err := decodeHello(payload); err != nil {
		_ = writeFrame(conn, msgError, []byte(err.Error())) // best-effort report; the decode error is what matters
		return err
	}
	var fp graphFingerprint
	hasGraph := false
	if g := holder.get(); g != nil {
		fp, hasGraph = fingerprintOf(g), true
	}
	if err := writeFrame(conn, msgWelcome, encodeWelcome(opt.Workers, fp, hasGraph)); err != nil {
		return err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	opt.logf("cluster worker: %v joined", conn.RemoteAddr())

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				opt.logf("cluster worker: %v left", conn.RemoteAddr())
				return nil
			}
			return err
		}
		switch typ {
		case msgSnapBegin:
			if err := receiveSnapshot(conn, br, holder, opt, payload); err != nil {
				return err
			}
		case msgJob:
			if err := runWorkerJob(conn, br, holder, opt, payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("expected job or snapshot, got frame type %d", typ)
		}
	}
}

// receiveSnapshot reads a master-pushed snapshot stream, loads the replica
// into the holder and answers with its fingerprint.
func receiveSnapshot(conn net.Conn, br *bufio.Reader, holder *graphHolder, opt ServeOptions, beginPayload []byte) error {
	total, err := decodeSnapBegin(beginPayload)
	if err != nil {
		_ = writeFrame(conn, msgError, []byte(err.Error())) // best-effort report; the decode error is what matters
		return err
	}
	buf := bytes.NewBuffer(make([]byte, 0, total))
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return fmt.Errorf("reading snapshot chunk: %w", err)
		}
		if typ == msgSnapEnd {
			break
		}
		if typ != msgSnapData {
			return fmt.Errorf("expected snapshot data, got frame type %d", typ)
		}
		if int64(buf.Len())+int64(len(payload)) > total {
			err := fmt.Errorf("snapshot overruns advertised length %d", total)
			_ = writeFrame(conn, msgError, []byte(err.Error())) // best-effort report before tearing down
			return err
		}
		buf.Write(payload)
	}
	if int64(buf.Len()) != total {
		err := fmt.Errorf("snapshot truncated: got %d of %d bytes", buf.Len(), total)
		_ = writeFrame(conn, msgError, []byte(err.Error())) // best-effort report before tearing down
		return err
	}
	g, err := graph.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		_ = writeFrame(conn, msgError, []byte(fmt.Sprintf("loading pushed snapshot: %v", err))) // best-effort report; the load error is what matters
		return err
	}
	holder.set(g)
	opt.logf("cluster worker: %v pushed snapshot %s (%d bytes)", conn.RemoteAddr(), FingerprintKey(g), total)
	return writeFrame(conn, msgSnapOK, encodeSnapOK(fingerprintOf(g)))
}

// workerConnState is the per-job connection state: a write mutex shared by
// the workers' acknowledgements and the result sender.
type workerConnState struct {
	conn net.Conn
	wmu  sync.Mutex
}

func (c *workerConnState) write(typ uint8, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return writeFrame(c.conn, typ, payload)
}

// runWorkerJob executes one job frame end to end: compile, accept, run the
// master's grants as they arrive (acknowledging each), and report the result
// once the master sends jobDone.
//
// Exit discipline (deterministic under a mid-job master disconnect): the
// result frame is written only when the drain finished cleanly — if the
// connection was lost (reader error or ack write failure) or the rank halted
// on an injected fault, the drain's outcome is abandoned without touching the
// socket. A partial drain can therefore never race a result frame onto the
// wire; the master either receives acks followed by a result, or acks
// followed by a disconnect.
func runWorkerJob(conn net.Conn, br *bufio.Reader, holder *graphHolder, opt ServeOptions, jobPayload []byte) error {
	spec, err := decodeJob(jobPayload)
	if err != nil {
		_ = writeFrame(conn, msgError, []byte(err.Error())) // best-effort report; the decode error is what matters
		return err
	}
	g := holder.get()
	if g == nil {
		// A rejected job is not a connection error: report it and keep
		// serving — the master should have pushed a snapshot first.
		return writeFrame(conn, msgError, []byte("worker holds no graph snapshot"))
	}
	job, err := spec.compile(g)
	if err != nil {
		// Likewise (graph/config mismatch): let the master decide; it will
		// usually close the connection, which the outer loop handles as a
		// leave.
		return writeFrame(conn, msgError, []byte(err.Error()))
	}
	if opt.Workers > 0 {
		job.WorkersPerRank = opt.Workers
	}
	if err := writeFrame(conn, msgJobOK, nil); err != nil {
		return err
	}

	c := &workerConnState{conn: conn}
	// The master never lets a rank hold more unacknowledged tasks than it
	// has workers, so the reader never waits on this buffer.
	queue := make(chan taskpool.Range, job.WorkersPerRank)
	readerDone := make(chan struct{})
	var readerErr error
	// lost flips when the master's connection dies mid-job. It is handed to
	// the drain loop as the workers' stop flag: a master that cancelled the
	// job (or crashed) frees this rank's cores within one outer-loop
	// boundary instead of leaving them counting for a client that will
	// never read the result.
	var lost atomic.Bool
	// halt flips on an injected fault: the rank "crashes" at a task
	// boundary, leaving exactly-once accountable state (acked tasks) behind.
	var halt atomic.Bool

	// Acknowledge every completed task with its raw count delta; the master
	// banks it so a loss of this rank re-earns only unacknowledged work.
	// The injected fault (FailAfterTasks) closes the connection abruptly
	// after the K-th ack — an honest simulation of a crash mid-job.
	injectFault := job.FailAfterTasks > 0 && spec.Rank == job.FailRank && spec.NumRanks > 1
	var completed atomic.Int64
	taskDone := func(t taskpool.Range, delta int64) {
		if err := c.write(msgAck, encodeAck(t, delta)); err != nil {
			lost.Store(true)
			return
		}
		n := completed.Add(1)
		if n == 1 {
			opt.logf("cluster worker: %v: rank %d acknowledged its first task", conn.RemoteAddr(), spec.Rank)
		}
		if injectFault && n == int64(job.FailAfterTasks) {
			halt.Store(true)
			_ = conn.Close() // simulated crash: abrupt teardown is the point
		}
	}

	// The communication thread: queue the master's grants until jobDone or
	// the connection dies, then close the queue so the workers exit.
	go func() {
		defer close(readerDone)
		defer close(queue)
		for {
			typ, payload, err := readFrame(br)
			if err != nil {
				readerErr = fmt.Errorf("mid-job read: %w", err)
				lost.Store(true)
				return
			}
			switch typ {
			case msgTasks:
				ts, err := decodeTasks(payload)
				if err != nil {
					readerErr = err
					lost.Store(true)
					return
				}
				for _, t := range ts {
					queue <- t
				}
			case msgJobDone:
				return
			default:
				readerErr = fmt.Errorf("unexpected mid-job frame type %d", typ)
				lost.Store(true)
				return
			}
		}
	}()

	res := drain(job, spec.Rank, queue, &lost, &halt, taskDone)
	// Workers stopped early leave grants behind; discarding them lets the
	// reader reach its next read, which fails on the dead connection.
	for range queue {
	}
	<-readerDone

	if halt.Load() {
		// Injected crash: the connection is closed; the outer loop's next
		// read fails and the worker returns to accepting masters.
		return fmt.Errorf("injected fault: rank %d left after %d tasks", spec.Rank, completed.Load())
	}
	if lost.Load() {
		// The master is gone; there is no one to report to, and a drain
		// interrupted by the stop flag must never produce a result frame.
		if readerErr != nil {
			return readerErr
		}
		return fmt.Errorf("connection lost mid-job")
	}
	return c.write(msgResult, encodeResult(res))
}

// drain runs the rank's worker loop: job.WorkersPerRank goroutines pop tasks
// from queue and execute them with per-worker core.Counters until the queue
// closes. It returns the rank's raw tally and statistics. taskDone is invoked
// after every fully completed task with the task's range and the raw count
// delta its execution earned. Two flags abort the rank cooperatively:
//
//   - stop makes the per-worker Counters abandon their current range at the
//     next outer-loop boundary; a task interrupted this way is never
//     reported to taskDone, because its delta is partial. The worker sets it
//     when its master disconnects, so a cancelled or crashed client frees the
//     rank's cores instead of leaving them finishing dead work.
//   - halt stops the rank at the next task boundary: in-flight tasks run to
//     completion (and are reported), queued tasks stay queued. Fault
//     injection uses it so a "crashed" rank leaves only exactly-once
//     accountable state behind.
//
// This loop is the policy of §IV-E's worker threads.
func drain(job *Job, rankID int, queue <-chan taskpool.Range, stop, halt *atomic.Bool, taskDone func(t taskpool.Range, delta int64)) RankResult {
	var tasksRun, busyNS atomic.Int64
	raw := make([]int64, job.WorkersPerRank)
	var wg sync.WaitGroup
	for w := range raw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counter := core.NewCounter(job.Bound, job.Graph, stop)
			defer func() { raw[w] = counter.Raw() }()
			var prev int64
			for t := range queue {
				if halt.Load() || stop.Load() {
					return
				}
				if job.NodeDelay > 0 && rankID == job.DelayedRank {
					// Injected slowness is deliberately not counted as
					// busy time: BusyTime measures how the useful work
					// spread across ranks, and a straggler's handicap
					// shows up as fewer tasks executed.
					time.Sleep(job.NodeDelay)
				}
				t0 := time.Now()
				counter.CountRange(t.Start, t.End)
				cur := counter.Raw()
				delta := cur - prev
				prev = cur
				if stop.Load() {
					// The counter may have abandoned the range mid-way;
					// the partial delta must not be reported as a
					// completed task.
					return
				}
				busyNS.Add(int64(time.Since(t0)))
				tasksRun.Add(1)
				taskDone(t, delta)
				// Yield between tasks so ranks interleave fairly even
				// when the host has fewer cores than the cluster has
				// workers; without this, one goroutine can run every
				// grant before its peers are scheduled — a shared-CPU
				// artifact, not a property of §IV-E.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	res := RankResult{Stats: NodeStats{TasksRun: tasksRun.Load(), BusyTime: time.Duration(busyNS.Load())}}
	for _, c := range raw {
		res.Raw += c
	}
	return res
}
