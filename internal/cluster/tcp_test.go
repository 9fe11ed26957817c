package cluster

import (
	"encoding/binary"
	"maps"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// runWithTimeout guards Run calls that exercise failure paths: the contract
// under test is "errors, never hangs".
func runWithTimeout(t *testing.T, d time.Duration, cfg *core.Config, g *graph.Graph, opt Options) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, g, opt)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("Run did not return within %v", d)
		return nil, nil
	}
}

// TestTCPSnapshotWorker exercises the deployment path the transport is built
// for: the worker loads its replica from a GPiCSR3 snapshot it did not
// write, including an Optimize()d view, and produces the master's exact
// counts.
func TestTCPSnapshotWorker(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 21)
	og := g.Reorder()
	og.BuildHubBitmaps(1<<22, 0)
	dir := t.TempDir()
	for name, dg := range map[string]*graph.Graph{"plain": g, "optimized": og} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".bin")
			if err := graph.SaveBinaryFile(path, dg); err != nil {
				t.Fatal(err)
			}
			replica, err := graph.LoadBinaryFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := DialTCP(startWorkers(t, replica, 2), DialOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cfg := planFor(t, g, pattern.House())
			want := cfg.Count(g, core.RunOptions{Workers: 1})
			res, err := Run(cfg, dg, Options{WorkersPerNode: 2, UseIEP: true, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("snapshot worker count = %d, want %d", res.Count, want)
			}
		})
	}
}

// TestTCPSequentialJobs reuses one transport for several jobs, including
// different patterns and IEP modes — the ConnectCluster usage pattern.
func TestTCPSequentialJobs(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 5)
	tr := dialWorkers(t, g, 2)
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.Rectangle(), pattern.House()} {
		cfg := planFor(t, g, p)
		want := cfg.Count(g, core.RunOptions{Workers: 1})
		for _, iep := range []bool{false, true} {
			res, err := Run(cfg, g, Options{WorkersPerNode: 2, UseIEP: iep, Transport: tr})
			if err != nil {
				t.Fatalf("%s iep=%v: %v", p.Name(), iep, err)
			}
			if res.Count != want {
				t.Errorf("%s iep=%v: count = %d, want %d", p.Name(), iep, res.Count, want)
			}
		}
	}
}

// TestTCPRanksFixed: the TCP transport's rank count is its worker set, not
// the requested node count.
func TestTCPRanksFixed(t *testing.T) {
	g := graph.GNP(60, 0.3, 9)
	tr := dialWorkers(t, g, 2)
	if n := tr.Ranks(); n != 2 {
		t.Fatalf("Ranks() = %d, want 2", n)
	}
	cfg := planFor(t, g, pattern.Triangle())
	res, err := Run(cfg, g, Options{Nodes: 5, WorkersPerNode: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("result has %d ranks, want 2", len(res.Nodes))
	}
	if want := cfg.Count(g, core.RunOptions{Workers: 1}); res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestTCPGraphMismatch: a worker holding a different replica must reject the
// job with a descriptive error instead of counting wrong.
func TestTCPGraphMismatch(t *testing.T) {
	master := graph.BarabasiAlbert(300, 4, 5)
	mismatches := map[string]*graph.Graph{
		"size":      graph.BarabasiAlbert(301, 4, 5),
		"reordered": master.Reorder(),
	}
	for name, workerGraph := range mismatches {
		t.Run(name, func(t *testing.T) {
			tr, err := DialTCP(startWorkers(t, workerGraph, 1), DialOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cfg := planFor(t, master, pattern.Triangle())
			_, err = runWithTimeout(t, 30*time.Second, cfg, master, Options{Transport: tr})
			if err == nil {
				t.Fatal("mismatched replica did not error")
			}
			if !strings.Contains(err.Error(), "graph mismatch") {
				t.Errorf("error %q does not name the graph mismatch", err)
			}
		})
	}
}

// TestTCPNameMismatch: dataset names, when both sides carry one, must agree.
func TestTCPNameMismatch(t *testing.T) {
	master := graph.BarabasiAlbert(200, 4, 5)
	master.SetName("ds-a")
	workerGraph := graph.BarabasiAlbert(200, 4, 5)
	workerGraph.SetName("ds-b")
	tr, err := DialTCP(startWorkers(t, workerGraph, 1), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := planFor(t, master, pattern.Triangle())
	_, err = runWithTimeout(t, 30*time.Second, cfg, master, Options{Transport: tr})
	if err == nil || !strings.Contains(err.Error(), "graph mismatch") {
		t.Fatalf("name mismatch not rejected: %v", err)
	}
}

// TestTCPWorkerDisconnect: a worker that dies holding its first grant is a
// recoverable loss — its tasks are re-granted and the job completes with the
// exact count; the shrunken pool keeps serving further jobs.
func TestTCPWorkerDisconnect(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 7)
	// One honest worker plus one saboteur that handshakes, accepts the
	// job, takes its first grant, then drops the connection without running
	// it. Redial attempts are slammed shut so the pool stays shrunken.
	honest := startWorkers(t, g, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// hello → welcome
		if typ, _, err := readFrame(conn); err != nil || typ != msgHello {
			conn.Close()
			return
		}
		writeFrame(conn, msgWelcome, encodeWelcome(0, fingerprintOf(g), true))
		// job → jobOK
		if typ, _, err := readFrame(conn); err != nil || typ != msgJob {
			conn.Close()
			return
		}
		writeFrame(conn, msgJobOK, nil)
		// Take the first grant, then vanish.
		readFrame(conn)
		conn.Close()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // refuse rejoin fast
		}
	}()

	tr, err := DialTCP(append(honest, ln.Addr().String()), DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := planFor(t, g, pattern.House())
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	res, err := runWithTimeout(t, 30*time.Second, cfg, g, Options{WorkersPerNode: 2, Transport: tr})
	if err != nil {
		t.Fatalf("lost worker was not recovered: %v", err)
	}
	if res.Count != want {
		t.Errorf("recovered count = %d, want %d", res.Count, want)
	}
	st := tr.PoolStats()
	if st.Losses == 0 {
		t.Error("rank loss not recorded in pool stats")
	}
	if st.Redealt == 0 {
		t.Error("no tasks recorded as re-dealt")
	}
	// The pool shrinks but stays serviceable: the survivor runs the next job.
	res2, err := runWithTimeout(t, 30*time.Second, cfg, g, Options{WorkersPerNode: 2, Transport: tr})
	if err != nil {
		t.Fatalf("shrunken pool refused the next job: %v", err)
	}
	if res2.Count != want {
		t.Errorf("shrunken-pool count = %d, want %d", res2.Count, want)
	}
	if len(res2.Nodes) != 1 {
		t.Errorf("second job ran on %d ranks, want 1 (survivor only)", len(res2.Nodes))
	}
}

// TestTCPWorkerLostDuringSetup: a worker that dies between the handshake and
// the job frames — the master discovers the loss while *setting up* the job,
// not while running it. Setup-phase losses must be as recoverable as mid-job
// ones: the link is retired and the rank never receives a grant.
func TestTCPWorkerLostDuringSetup(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 7)
	honest := startWorkers(t, g, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// hello → welcome, then vanish before the job arrives.
		if typ, _, err := readFrame(conn); err != nil || typ != msgHello {
			conn.Close()
			return
		}
		writeFrame(conn, msgWelcome, encodeWelcome(0, fingerprintOf(g), true))
		conn.Close()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // refuse rejoin fast
		}
	}()

	tr, err := DialTCP(append(honest, ln.Addr().String()), DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := planFor(t, g, pattern.House())
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	res, err := runWithTimeout(t, 30*time.Second, cfg, g, Options{WorkersPerNode: 2, Transport: tr})
	if err != nil {
		t.Fatalf("setup-phase loss was not recovered: %v", err)
	}
	if res.Count != want {
		t.Errorf("recovered count = %d, want %d", res.Count, want)
	}
	st := tr.PoolStats()
	if st.Losses == 0 {
		t.Error("setup-phase rank loss not recorded in pool stats")
	}
	if st.Live != 1 {
		t.Errorf("live workers = %d, want 1", st.Live)
	}
}

// TestTCPWorkerCrashRejoins is the recovery round trip: a worker "crashes"
// mid-job (injected fault closes its connection after two completed tasks),
// the job still produces the exact count, and because the worker process
// survives, the next job's redial sweep brings it back as a full rank.
func TestTCPWorkerCrashRejoins(t *testing.T) {
	g := graph.BarabasiAlbert(500, 5, 11)
	inner := dialWorkers(t, g, 2)
	tr := NewFaultyTransport(inner, 1, 2)
	cfg := planFor(t, g, pattern.House())
	want := cfg.Count(g, core.RunOptions{Workers: 1})

	res, err := runWithTimeout(t, 30*time.Second, cfg, g,
		Options{WorkersPerNode: 2, ChunkSize: 8, Transport: tr})
	if err != nil {
		t.Fatalf("crashed worker was not recovered: %v", err)
	}
	if res.Count != want {
		t.Errorf("recovered count = %d, want %d", res.Count, want)
	}
	st := inner.PoolStats()
	if st.Losses == 0 {
		t.Error("crash not recorded as a loss")
	}
	if st.Live != 1 {
		t.Errorf("live workers after crash = %d, want 1", st.Live)
	}

	// The next job redials the crashed worker: it rejoins and runs tasks.
	res2, err := runWithTimeout(t, 30*time.Second, cfg, g,
		Options{WorkersPerNode: 2, ChunkSize: 8, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != want {
		t.Errorf("post-rejoin count = %d, want %d", res2.Count, want)
	}
	if len(res2.Nodes) != 2 {
		t.Fatalf("post-rejoin job ran on %d ranks, want 2", len(res2.Nodes))
	}
	if res2.Nodes[1].TasksRun == 0 {
		t.Error("rejoined worker received no tasks")
	}
	if st := inner.PoolStats(); st.Rejoins == 0 {
		t.Error("rejoin not recorded in pool stats")
	}
}

// TestTCPColdWorkerSnapshot: a worker started without any local replica
// joins cold, receives the fingerprint-verified snapshot from the master
// before its first job, and participates with exact counts. The replica
// persists in the worker, so a second transport does not need to re-push.
func TestTCPColdWorkerSnapshot(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 23)
	warm := startWorkers(t, g, 1)
	cold := startWorkers(t, nil, 1)
	tr, err := DialTCP(append(warm, cold...), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := planFor(t, g, pattern.House())
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	res, err := runWithTimeout(t, 60*time.Second, cfg, g,
		Options{WorkersPerNode: 2, UseIEP: true, Transport: tr})
	if err != nil {
		t.Fatalf("cold worker could not serve: %v", err)
	}
	if res.Count != want {
		t.Errorf("count with cold worker = %d, want %d", res.Count, want)
	}
	if res.Nodes[1].TasksRun == 0 {
		t.Error("cold worker received no tasks")
	}

	// The pushed replica persists across connections: a fresh master sees a
	// warm worker now.
	tr2, err := DialTCP(cold, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	res2, err := runWithTimeout(t, 60*time.Second, cfg, g,
		Options{WorkersPerNode: 2, UseIEP: true, Transport: tr2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != want {
		t.Errorf("count on previously-cold worker = %d, want %d", res2.Count, want)
	}
}

// TestServeSurvivesMasterDisconnect (the worker exit path): a master that
// vanishes mid-drain must leave the worker in a deterministic state — no
// result frame racing onto a dead socket, cores freed, and the process back
// to accepting so the next master gets exact counts.
func TestServeSurvivesMasterDisconnect(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 31)
	addrs := startWorkers(t, g, 1)
	tr, err := DialTCP(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := planFor(t, g, pattern.House())
	done := make(chan error, 1)
	go func() {
		// A deliberately slow job so the close lands mid-drain.
		_, err := Run(cfg, g, Options{WorkersPerNode: 1, ChunkSize: 4,
			NodeDelay: 2 * time.Millisecond, Transport: tr})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	tr.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("abandoned job reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("abandoned job did not unblock the master")
	}

	// The worker must still be serviceable.
	tr2, err := DialTCP(addrs, DialOptions{})
	if err != nil {
		t.Fatalf("worker unusable after master disconnect: %v", err)
	}
	defer tr2.Close()
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	res, err := runWithTimeout(t, 30*time.Second, cfg, g, Options{WorkersPerNode: 2, Transport: tr2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count after disconnect = %d, want %d", res.Count, want)
	}
}

// TestTCPHandshakeRejectsStrangers: dialing something that is not a worker
// errors instead of hanging, and a worker shrugs off garbage connections.
func TestTCPHandshakeRejectsStrangers(t *testing.T) {
	// A server that writes garbage instead of a welcome.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("NOT A GRAPHPI WORKER\n"))
		conn.Close()
	}()
	if _, err := DialTCP([]string{ln.Addr().String()}, DialOptions{Timeout: 5 * time.Second}); err == nil {
		t.Error("garbage server accepted as worker")
	}

	// A real worker receiving garbage closes the connection and keeps
	// serving honest masters.
	g := graph.GNP(50, 0.3, 3)
	addrs := startWorkers(t, g, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("\xff\xff\xff\xff garbage"))
	conn.Close()
	tr, err := DialTCP(addrs, DialOptions{})
	if err != nil {
		t.Fatalf("worker unusable after garbage connection: %v", err)
	}
	defer tr.Close()
	cfg := planFor(t, g, pattern.Triangle())
	res, err := Run(cfg, g, Options{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Count(g, core.RunOptions{Workers: 1}); res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestTCPServeStopsOnClose: closing the listener ends Serve with no error.
func TestTCPServeStopsOnClose(t *testing.T) {
	g := graph.GNP(20, 0.2, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, g, ServeOptions{Logf: t.Logf}) }()
	ln.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on clean close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// TestMain keeps goroutine leaks from loopback fixtures bounded: nothing to
// do beyond running the suite, but leaving the hook here documents that the
// package's tests spin real listeners.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// TestTCPDialRejectsMixedReplicas: workers advertising different replicas
// are rejected at dial time, before any job ships.
func TestTCPDialRejectsMixedReplicas(t *testing.T) {
	a := graph.BarabasiAlbert(200, 4, 5)
	b := graph.BarabasiAlbert(201, 4, 5)
	addrs := append(startWorkers(t, a, 1), startWorkers(t, b, 1)...)
	if _, err := DialTCP(addrs, DialOptions{}); err == nil {
		t.Fatal("workers with different replicas accepted at dial time")
	} else if !strings.Contains(err.Error(), "different replicas") {
		t.Errorf("error %q does not name the replica mismatch", err)
	}
}

// TestTCPWorkerOverrideCounts: ServeOptions.Workers overrides the per-job
// worker count; the master's TotalWorkers accounting sees the advertised
// value and counts stay exact.
func TestTCPWorkerOverrideCounts(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 17)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go Serve(ln, g, ServeOptions{Workers: 3})
	tr, err := DialTCP([]string{ln.Addr().String()}, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if tw := tr.TotalWorkers(8); tw != 3 {
		t.Errorf("TotalWorkers = %d, want the advertised override 3", tw)
	}
	cfg := planFor(t, g, pattern.House())
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	res, err := Run(cfg, g, Options{WorkersPerNode: 8, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestTCPPoolLatencyStatsAndJobDeltas: the master-side latency histograms
// fill during a job (inter-ack gaps always; the redeal histogram when a rank
// is lost holding tasks), and PoolStats.LastJob isolates one job's recovery
// events — a clean follow-up job reports zero deltas while the lifetime
// totals keep the earlier loss. Rank 1 has two workers and dies at its second
// ack, when the master still counts the other worker's task (or the grant
// that replaced the first) as held, so the job always re-grants something.
func TestTCPPoolLatencyStatsAndJobDeltas(t *testing.T) {
	g := graph.BarabasiAlbert(500, 5, 11)
	inner := dialWorkers(t, g, 2)
	tr := NewFaultyTransport(inner, 1, 2)
	cfg := planFor(t, g, pattern.House())
	want := cfg.Count(g, core.RunOptions{Workers: 1})

	res, err := runWithTimeout(t, 30*time.Second, cfg, g,
		Options{WorkersPerNode: 2, ChunkSize: 8, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
	st := inner.PoolStats()
	if st.TaskGap.Count == 0 {
		t.Error("no inter-ack gaps observed")
	}
	var bucketTotal int64
	for _, b := range st.TaskGap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != st.TaskGap.Count {
		t.Errorf("task-gap buckets sum to %d, count %d", bucketTotal, st.TaskGap.Count)
	}
	if st.LastJob.Losses == 0 {
		t.Errorf("lossy job deltas = %+v, want a loss", st.LastJob)
	}
	if st.LastJob.Redealt != st.Redealt {
		t.Errorf("first job's redeal delta %d differs from the lifetime total %d", st.LastJob.Redealt, st.Redealt)
	}
	if st.LastJob.Redealt == 0 || st.Redeal.Count == 0 {
		t.Errorf("%d tasks re-dealt, %d redeal drains recorded; want both > 0", st.LastJob.Redealt, st.Redeal.Count)
	}

	// A clean second job (bypassing the fault injector): per-job deltas
	// reset, lifetime totals persist.
	res2, err := runWithTimeout(t, 30*time.Second, cfg, g,
		Options{WorkersPerNode: 2, ChunkSize: 8, Transport: inner})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != want {
		t.Errorf("second count = %d, want %d", res2.Count, want)
	}
	st2 := inner.PoolStats()
	if st2.LastJob.Losses != 0 || st2.LastJob.Redealt != 0 {
		t.Errorf("clean job deltas = %+v, want zero", st2.LastJob)
	}
	if st2.Losses == 0 || st2.Redealt != st.Redealt {
		t.Errorf("lifetime totals lost earlier events: %+v", st2)
	}
	if st2.TaskGap.Count <= st.TaskGap.Count {
		t.Errorf("second job observed no new gaps: %d → %d", st.TaskGap.Count, st2.TaskGap.Count)
	}
}

// frameCounter wraps a worker's listener and tallies, by type, every frame
// the worker writes on any connection it accepts.
type frameCounter struct {
	net.Listener
	mu     sync.Mutex
	counts map[uint8]int // guarded by mu
}

func (f *frameCounter) Accept() (net.Conn, error) {
	c, err := f.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, f: f}, nil
}

func (f *frameCounter) snapshot() map[uint8]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.counts)
}

// countingConn parses the outgoing byte stream into frames as it is written.
type countingConn struct {
	net.Conn
	f       *frameCounter
	pending []byte // guarded by f.mu
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.f.mu.Lock()
	c.pending = append(c.pending, b...)
	for len(c.pending) >= 5 {
		n := int(binary.LittleEndian.Uint32(c.pending))
		if len(c.pending) < 4+n {
			break
		}
		c.f.counts[c.pending[4]]++
		c.pending = c.pending[4+n:]
	}
	c.f.mu.Unlock()
	return c.Conn.Write(b)
}

// TestIdleRankSendsOnlyAcks: a rank with nothing to run waits for the master's
// next grant instead of asking for work. Rank 0 is slowed 5 ms per task, so
// rank 1 runs most of the job and then idles while rank 0 finishes; over the
// whole job rank 1 writes one jobOK, one ack per task it ran and one result
// (after the handshake's welcome) — nothing else, however long it idles.
func TestIdleRankSendsOnlyAcks(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 41)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fast := &frameCounter{Listener: ln, counts: map[uint8]int{}}
	go Serve(fast, g, ServeOptions{})
	tr, err := DialTCP(append(startWorkers(t, g, 1), ln.Addr().String()), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := planFor(t, g, pattern.House())
	res, err := runWithTimeout(t, 60*time.Second, cfg, g, Options{
		WorkersPerNode: 1, NodeDelay: 5 * time.Millisecond, DelayedNode: 0, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Count(g, core.RunOptions{Workers: 1}); res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
	if res.Nodes[1].TasksRun <= res.Nodes[0].TasksRun {
		t.Errorf("fast rank ran %d tasks, straggler %d", res.Nodes[1].TasksRun, res.Nodes[0].TasksRun)
	}
	want := map[uint8]int{msgWelcome: 1, msgJobOK: 1, msgAck: int(res.Nodes[1].TasksRun), msgResult: 1}
	if got := fast.snapshot(); !maps.Equal(got, want) {
		t.Errorf("rank 1 wrote frames %v (type: count), want %v", got, want)
	}
}
