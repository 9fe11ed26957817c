package cluster

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

func planFor(t testing.TB, g *graph.Graph, p *pattern.Pattern) *core.Config {
	t.Helper()
	res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best
}

// startWorkers spins up n loopback TCP worker processes (goroutine-hosted
// cluster.Serve instances, each with its own listener) serving the graph g,
// and returns their addresses. Listeners are closed via t.Cleanup.
func startWorkers(t testing.TB, g *graph.Graph, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go Serve(ln, g, ServeOptions{})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// dialWorkers connects a TCP transport to loopback workers serving g and
// registers its teardown.
func dialWorkers(t testing.TB, g *graph.Graph, n int) Transport {
	t.Helper()
	tr, err := DialTCP(startWorkers(t, g, n), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// dialInProc opens an in-process pool of nodes ranks serving g, the pool Run
// dials itself when Options.Transport is nil, and registers its teardown.
func dialInProc(t testing.TB, g *graph.Graph, nodes int) Transport {
	t.Helper()
	tr, err := dialInProcess(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// transportCase materializes one fabric for a (graph, nodes) pair: the
// in-process transport runs each rank's worker behind a net.Pipe, the TCP
// transport spins up that many loopback worker processes. The same test
// bodies run against both — the conformance suite of the Transport contract.
type transportCase struct {
	name string
	// lossy marks fault-injected fabrics: one rank dies partway through every
	// multi-rank job. Counts must stay bit-identical regardless; assertions
	// about load-balance shape are skipped (a dead rank skews busy time).
	lossy bool
	open  func(t testing.TB, g *graph.Graph, nodes int) Transport
}

var transportCases = []transportCase{
	{name: "inproc", open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return dialInProc(t, g, nodes)
	}},
	{name: "tcp", open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return dialWorkers(t, g, nodes)
	}},
	{name: "inproc/faulty", lossy: true, open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return NewFaultyTransport(dialInProc(t, g, nodes), -1, 2)
	}},
	{name: "tcp/faulty", lossy: true, open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return NewFaultyTransport(dialWorkers(t, g, nodes), -1, 2)
	}},
}

func TestClusterMatchesSingleNode(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 77)
	p := pattern.House()
	cfg := planFor(t, g, p)
	want := cfg.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1})
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, nodes := range []int{1, 2, 4} {
				tr := tc.open(t, g, nodes)
				for _, wpn := range []int{1, 3} {
					res, err := Run(cfg, g, Options{
						Nodes: nodes, WorkersPerNode: wpn, Transport: tr,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != want {
						t.Errorf("nodes=%d wpn=%d: count = %d, want %d", nodes, wpn, res.Count, want)
					}
					if len(res.Nodes) != nodes {
						t.Fatalf("nodes=%d: got %d rank stats", nodes, len(res.Nodes))
					}
					var tasksRun int64
					for _, ns := range res.Nodes {
						tasksRun += ns.TasksRun
					}
					if int(tasksRun) != res.Tasks {
						t.Errorf("nodes=%d: tasks run %d != created %d", nodes, tasksRun, res.Tasks)
					}
				}
			}
		})
	}
}

func TestClusterIEP(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 13)
	p := pattern.Cycle6Tri()
	cfg := planFor(t, g, p)
	want := cfg.Bind(true, core.TierAuto).Count(g, core.RunOptions{Workers: 1})
	if plain := cfg.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 2}); plain != want {
		t.Errorf("IEP %d != plain %d", want, plain)
	}
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 3)
			res, err := Run(cfg, g, Options{
				Nodes: 3, WorkersPerNode: 2, UseIEP: true, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("cluster IEP = %d, want %d", res.Count, want)
			}
		})
	}
}

func TestClusterStragglerRunsFewerTasks(t *testing.T) {
	// Inject a slow node: granting on demand must shift most tasks to
	// healthy nodes (the imbalance scenario of §IV-E).
	g := graph.BarabasiAlbert(600, 4, 3)
	p := pattern.Triangle()
	cfg := planFor(t, g, p)
	want := cfg.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1})
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 3)
			res, err := Run(cfg, g, Options{
				Nodes: 3, WorkersPerNode: 1, ChunkSize: 4,
				NodeDelay: 2 * time.Millisecond, DelayedNode: 0,
				Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count = %d, want %d", res.Count, want)
			}
			healthy := res.Nodes[1].TasksRun + res.Nodes[2].TasksRun
			if healthy <= res.Nodes[0].TasksRun {
				t.Errorf("healthy nodes ran %d tasks vs straggler %d; the master fed the straggler",
					healthy, res.Nodes[0].TasksRun)
			}
		})
	}
}

func TestClusterTinyGraph(t *testing.T) {
	g := graph.Complete(6)
	p := pattern.Triangle()
	cfg := planFor(t, g, p)
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 4)
			res, err := Run(cfg, g, Options{
				Nodes: 4, WorkersPerNode: 2, ChunkSize: 1, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != 20 {
				t.Errorf("K6 triangles = %d, want 20", res.Count)
			}
		})
	}
	// The empty graph short-circuits before any transport traffic.
	empty, _ := graph.FromEdges(0, nil)
	cfg2 := planFor(t, g, p)
	res, err := Run(cfg2, empty, Options{Nodes: 2})
	if err != nil || res.Count != 0 {
		t.Errorf("empty graph: %v %v", res, err)
	}
}

// starRingGraph builds the extreme-skew fixture of the single-node balance
// test (core.TestEdgeParallelBalance): a hub adjacent to every other vertex
// plus a ring among the non-hub vertices. Under a restriction orientation
// that makes the max-id hub the root of essentially all the work, one
// vertex-range task owns ~100% of the compute.
func starRingGraph(n int) *graph.Graph {
	bld := graph.NewBuilder(n, 2*n)
	hub := uint32(n - 1)
	for v := uint32(0); v+1 < hub; v++ {
		bld.AddEdge(v, v+1)
	}
	for v := uint32(0); v < hub; v++ {
		bld.AddEdge(hub, v)
	}
	g, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// hubRootTriangle compiles a triangle configuration oriented so the max-id
// vertex (the hub) performs the candidate sweep.
func hubRootTriangle(t testing.TB) *core.Config {
	t.Helper()
	cfg, err := core.NewConfig(pattern.Triangle(),
		schedule.Schedule{Order: []uint8{0, 1, 2}},
		restrict.Set{{First: 0, Second: 1}, {First: 1, Second: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestClusterEdgeParallelBalance is the cluster-level analogue of
// core.TestEdgeParallelBalance, run as a conformance case on every
// transport: on the extreme-skew fixture the hub root owns nearly all the
// matches, so any cut into vertex ranges would pin one node with the hub's
// indivisible task; that share is counted by one Counter range over the
// hub's slots. The master's slot tasks spread the hub's adjacency across
// many tasks, and the max per-node busy-time share stays below 2x the ideal
// 1/Nodes share — even when one node is an injected straggler.
func TestClusterEdgeParallelBalance(t *testing.T) {
	const n, nodes = 30000, 4
	g := starRingGraph(n)
	b := hubRootTriangle(t).Bind(false, core.TierAuto)
	want := b.Count(g, core.RunOptions{Workers: 1})
	hub := core.NewCounter(b, g, nil)
	hub.CountRange(g.AdjSlotRange(n - 1))
	if share := float64(hub.Raw()) / float64(want); share < 0.9 {
		t.Fatalf("fixture should put the work under the hub root: its share is %.3f", share)
	}

	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, nodes)
			base := Options{Nodes: nodes, WorkersPerNode: 1, ChunkSize: 64, Transport: tr}
			eres, err := RunBound(context.Background(), b, g, base)
			if err != nil {
				t.Fatal(err)
			}
			if eres.Count != want {
				t.Fatalf("count = %d, want %d", eres.Count, want)
			}

			sopt := base
			sopt.NodeDelay = 200 * time.Microsecond
			sopt.DelayedNode = 1
			sres, err := RunBound(context.Background(), b, g, sopt)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Count != want {
				t.Fatalf("straggler count = %d, want %d", sres.Count, want)
			}

			if tc.lossy {
				// A rank died partway through each run; busy time is no
				// longer a balance signal. Exact counts above are the gate.
				return
			}
			eShare, sShare := eres.MaxBusyShare(), sres.MaxBusyShare()
			t.Logf("max busy share: %.3f (%d tasks), with a straggler %.3f", eShare, eres.Tasks, sShare)
			if procs := runtime.GOMAXPROCS(0); procs < nodes {
				// Busy share is wall-clock: with fewer cores than ranks the OS
				// decides who runs, not the dealer. The exact counts above are
				// the gate on such a box; the shares are logged only.
				t.Logf("GOMAXPROCS=%d < %d ranks: busy-share bounds not applied", procs, nodes)
				return
			}
			bound := 2.0 / nodes
			if eShare >= bound {
				t.Errorf("max busy share %.3f, want < %.3f", eShare, bound)
			}
			if sShare >= bound {
				t.Errorf("max busy share with straggler %.3f, want < %.3f", sShare, bound)
			}
		})
	}
}

// TestClusterHybridEquivalence pins cluster.Run to the single-node engine
// across {inproc, tcp} transports x {1, N} nodes x {plain, IEP} on both the
// original and the Optimize()d (reordered + hub bitmaps) view of the graph,
// over the paper's named pattern suite. This is the bit-identical-counts
// acceptance gate for the transport layer.
func TestClusterHybridEquivalence(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 99)
	og := g.Reorder()
	og.BuildHubBitmaps(1<<22, 0)
	if og.NumHubs() == 0 {
		t.Fatal("fixture should have hub bitmaps")
	}
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.Pentagon(),
		pattern.House(), pattern.Cycle6Tri(),
	}
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			for gi, dg := range []*graph.Graph{g, og} {
				for _, nodes := range []int{1, 3} {
					tr := tc.open(t, dg, nodes)
					for _, p := range pats {
						cfg := planFor(t, g, p)
						want := cfg.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1})
						for _, useIEP := range []bool{false, true} {
							res, err := Run(cfg, dg, Options{
								Nodes: nodes, WorkersPerNode: 2, UseIEP: useIEP, Transport: tr,
							})
							if err != nil {
								t.Fatal(err)
							}
							if res.Count != want {
								t.Errorf("%s optimized=%v iep=%v nodes=%d: count = %d, want %d",
									p.Name(), gi == 1, useIEP, nodes, res.Count, want)
							}
						}
					}
				}
			}
		})
	}
}

func TestClusterDefaultsNormalize(t *testing.T) {
	g := graph.GNP(50, 0.3, 5)
	p := pattern.Triangle()
	cfg := planFor(t, g, p)
	// Zero-valued options must normalize rather than hang or panic.
	res, err := Run(cfg, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != cfg.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1}) {
		t.Error("default options wrong count")
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

// TestClusterCliqueKernel pins the ranks' executor choice end to end: a
// clique's Counter runs the clique kernel on every rank, over CSR slot
// ranges, and the reduced count must equal the local one on every transport,
// faulty ones included.
func TestClusterCliqueKernel(t *testing.T) {
	g := graph.BarabasiAlbert(300, 8, 31)
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 3)
			for _, q := range []int{4, 5} {
				cfg := planFor(t, g, pattern.Clique(q))
				if cfg.Bind(false, core.TierAuto).Tier() != core.TierGenerated {
					t.Fatalf("K%d: planned configuration does not resolve to the clique kernel", q)
				}
				want := cfg.Bind(true, core.TierInterpret).Count(g, core.RunOptions{Workers: 1})
				if want == 0 {
					t.Fatalf("K%d: fixture has no cliques", q)
				}
				res, err := Run(cfg, g, Options{Nodes: 3, WorkersPerNode: 2, UseIEP: true, Transport: tr})
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != want {
					t.Errorf("K%d: cluster %d, local %d", q, res.Count, want)
				}
			}
		})
	}
}

// TestClusterDefaultCut runs the master's default cut (ChunkSize 0: tasks of
// equal predicted work) on every transport for the three ways a job can be
// cut: interpreter slot tasks, interpreter vertex tasks (a path whose IEP
// suffix starts right after depth 0) and the clique kernel's unit-weight slot
// tasks, on a degree-ordered graph with hub bitmaps. Counts must equal the
// local count bit for bit, and the master must grant exactly the tasks core's
// cutter made.
func TestClusterDefaultCut(t *testing.T) {
	const nodes, wpn = 3, 2
	g := graph.BarabasiAlbert(500, 6, 41).Reorder()
	g.BuildHubBitmaps(1<<22, 0)
	cases := []struct {
		name  string
		p     *pattern.Pattern
		space int // the task space the cut must cover
	}{
		{"slot", pattern.House(), g.NumAdjSlots()},
		{"vertex", pattern.PathN(3), g.NumVertices()},
		{"clique", pattern.Clique(4), g.NumAdjSlots()},
	}
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, nodes)
			for _, c := range cases {
				cfg := planFor(t, g, c.p)
				want := cfg.Bind(true, core.TierInterpret).Count(g, core.RunOptions{Workers: 1})
				tasks := cfg.Bind(true, core.TierAuto).RootTasks(g, core.RunOptions{Workers: nodes * wpn}, tasksPerWorker)
				if end := tasks[len(tasks)-1].End; end != c.space {
					t.Fatalf("%s: the cut ends at %d, want %d", c.name, end, c.space)
				}
				res, err := Run(cfg, g, Options{
					Nodes: nodes, WorkersPerNode: wpn, UseIEP: true, Transport: tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != want {
					t.Errorf("%s: cluster count %d, local %d", c.name, res.Count, want)
				}
				if res.Tasks != len(tasks) {
					t.Errorf("%s: master granted %d tasks, the cutter made %d", c.name, res.Tasks, len(tasks))
				}
			}
		})
	}
}

// TestClusterConcurrentJobs: a transport runs one job at a time, so callers
// sharing one queue for it instead of interleaving their frames on the same
// connections. Two goroutines run several rounds each on one transport of
// every fabric, and every count must equal the local engine's.
func TestClusterConcurrentJobs(t *testing.T) {
	const callers, rounds = 2, 4
	g := graph.BarabasiAlbert(400, 5, 57)
	var bounds []core.Bound
	var want []int64
	for _, p := range []*pattern.Pattern{pattern.House(), pattern.Triangle(), pattern.Rectangle()} {
		b := planFor(t, g, p).Bind(true, core.TierAuto)
		n, err := b.Run(context.Background(), g, core.RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		bounds, want = append(bounds, b), append(want, n)
	}
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 2)
			errs := make(chan error, callers*rounds)
			var wg sync.WaitGroup
			for c := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range rounds {
						i := (c + r) % len(bounds)
						res, err := RunBound(context.Background(), bounds[i], g, Options{WorkersPerNode: 2, Transport: tr})
						switch {
						case err != nil:
							errs <- fmt.Errorf("caller %d round %d: %w", c, r, err)
						case res.Count != want[i]:
							errs <- fmt.Errorf("caller %d round %d: count = %d, want %d", c, r, res.Count, want[i])
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestClusterCancelMidJob: a job whose context ends mid-job returns ctx.Err()
// at once, a job queued behind it leaves the queue when its own context ends,
// and the transport then runs the next job exactly. A cancellation is not a
// loss: the pool's loss, rejoin and redeal counters do not move, and both
// workers stay live. Rank 0 sleeps 2 s before each task, so an uncancelled
// job could not return sooner.
func TestClusterCancelMidJob(t *testing.T) {
	const delay = 2 * time.Second
	g := graph.BarabasiAlbert(400, 5, 61)
	b := planFor(t, g, pattern.House()).Bind(false, core.TierAuto)
	want := b.Count(g, core.RunOptions{Workers: 1})
	for _, tc := range transportCases {
		if tc.lossy {
			continue // an injected fault moves the counters this test pins
		}
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 2)
			st0 := tr.PoolStats()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			slow := make(chan error, 1)
			go func() {
				_, err := RunBound(ctx, b, g, Options{WorkersPerNode: 1, ChunkSize: 4,
					NodeDelay: delay, DelayedNode: 0, Transport: tr})
				slow <- err
			}()
			for tr.PoolStats().TaskGap.Count == st0.TaskGap.Count {
				if time.Since(start) > delay {
					t.Fatal("no task was acknowledged before the delayed rank's first task ended")
				}
				time.Sleep(time.Millisecond)
			}

			// A job queued behind the running one leaves when its context ends.
			qctx, qcancel := context.WithCancel(context.Background())
			queued := make(chan error, 1)
			go func() {
				_, err := RunBound(qctx, b, g, Options{WorkersPerNode: 1, Transport: tr})
				queued <- err
			}()
			time.Sleep(20 * time.Millisecond)
			qcancel()
			if err := <-queued; err != context.Canceled {
				t.Fatalf("queued job returned %v, want context.Canceled", err)
			}
			select {
			case err := <-slow:
				t.Fatalf("the running job ended (%v) before it was cancelled", err)
			default:
			}

			cancel()
			if err := <-slow; err != context.Canceled {
				t.Fatalf("cancelled job returned %v, want context.Canceled", err)
			}
			if el := time.Since(start); el >= delay {
				t.Errorf("cancelled job returned after %v; the delayed rank's task alone takes %v", el, delay)
			}

			check := func(when string) {
				t.Helper()
				st := tr.PoolStats()
				if st.Losses != st0.Losses || st.Rejoins != st0.Rejoins || st.Redealt != st0.Redealt {
					t.Errorf("%s: losses %d→%d, rejoins %d→%d, re-dealt %d→%d; want no change",
						when, st0.Losses, st.Losses, st0.Rejoins, st.Rejoins, st0.Redealt, st.Redealt)
				}
				if st.Live != 2 {
					t.Errorf("%s: %d live workers, want 2", when, st.Live)
				}
			}
			check("after the cancellation")
			res, err := RunBound(context.Background(), b, g, Options{WorkersPerNode: 2, Transport: tr})
			if err != nil {
				t.Fatalf("job after the cancellation: %v", err)
			}
			if res.Count != want || len(res.Nodes) != 2 {
				t.Errorf("job after the cancellation: count %d on %d ranks, want %d on 2", res.Count, len(res.Nodes), want)
			}
			check("after the next job")
		})
	}
}
