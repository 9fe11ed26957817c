package core

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
)

// starRingGraph builds the extreme-skew fixture: a hub adjacent to every
// other vertex plus a ring among the non-hub vertices. Every triangle goes
// through the hub, so under the restriction orientation id(v0) > id(v1) >
// id(v2) the hub (max id) is the root of essentially all the work: the
// "single hub vertex serializes an entire chunk" pathology.
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
func hubRootTriangle(t testing.TB) *Config {
	t.Helper()
	return mustConfig(t, pattern.Triangle(), identitySchedule(3), restrict.Set{{First: 0, Second: 1}, {First: 1, Second: 2}})
}

// TestEdgeParallelBalance measures, deterministically, the straggler effect
// slot tasks eliminate. Work per task is proxied by the number of matches the
// task finds: on the star+ring fixture all matches live under the hub root,
// so any cut into vertex ranges puts the hub root's whole share in one task.
// That share is the baseline, counted by one Counter range over the hub's
// slots. The engine's slot tasks split the hub's adjacency over many tasks.
// Wall-clock speedup is this ratio on a machine with enough cores; match
// shares make the test hardware-independent.
func TestEdgeParallelBalance(t *testing.T) {
	const n = 20000
	g := starRingGraph(n)
	b := hubRootTriangle(t).Bind(false, TierAuto)
	if !b.slotTasks() {
		t.Fatal("the hub-root triangle should take slot tasks")
	}
	total := b.Count(g, RunOptions{Workers: 1})
	if total < int64(n)-10 {
		t.Fatalf("fixture broken: %d triangles", total)
	}

	hub := NewCounter(b, g, nil)
	hub.CountRange(g.AdjSlotRange(uint32(n - 1)))
	hubShare := float64(hub.Raw()) / float64(total)

	tasks := b.RootTasks(g, RunOptions{Workers: 8}, engineTasksPerWorker)
	c := NewCounter(b, g, nil)
	var maxDelta, prev int64
	for _, tk := range tasks {
		c.CountRange(tk.Start, tk.End)
		maxDelta, prev = max(maxDelta, c.Raw()-prev), c.Raw()
	}
	if c.Raw() != total {
		t.Fatalf("task cover lost matches: %d != %d", c.Raw(), total)
	}
	share := float64(maxDelta) / float64(total)
	t.Logf("hub root's share (any vertex cut's largest task) %.4f; slot tasks' max share %.4f (%d tasks)",
		hubShare, share, len(tasks))
	if hubShare < 0.9 {
		t.Errorf("fixture should put the work under the hub root: its share is %.4f", hubShare)
	}
	if share > 0.05 {
		t.Errorf("slot tasks' max share %.4f, want <= 0.05", share)
	}
}

// TestCountRangeCoversExactly cross-checks the Counter task API on a binding
// that takes slot tasks: any partition of the slot space must reproduce the
// full count.
func TestCountRangeCoversExactly(t *testing.T) {
	g := graph.BarabasiAlbert(500, 4, 3)
	cfg := hubRootTriangle(t)
	if !cfg.Bind(false, TierAuto).slotTasks() {
		t.Fatal("triangle config should take slot tasks")
	}
	checkArms(t, "triangle", g, cfg, reference(cfg, g), axes{entry: counted, chunk: []int{1, 7, 64, 100000}}.arms())
}

// equalCut splits [0, n) into ⌈n/size⌉ ranges whose sizes differ by at most
// one: unit weights, the cut a fixed ChunkSize asks for.
func equalCut(n, size int) []taskpool.Range {
	return taskpool.Cut((n+size-1)/size, 1, func(int) (int, int64) { return n, 1 })
}

// taskWork runs the tasks in order on one interpreter worker with telemetry
// on and returns each task's work units: the scans, candidates and
// intersections it recorded, summed over levels.
func taskWork(cfg *Config, g *graph.Graph, tasks []taskpool.Range) []uint64 {
	w := cfg.Bind(true, TierAuto).newWorker(g, RunOptions{Stats: telemetry.NewRunStats(cfg.N())}, nil, nil)
	work := make([]uint64, len(tasks))
	var done uint64
	for i, tk := range tasks {
		w.RunTask(tk.Start, tk.End)
		var units uint64
		for d := 0; d < cfg.N(); d++ {
			l := w.Stats().Level(d)
			units += l.Scans + l.Candidates + l.Intersections
		}
		work[i], done = units-done, units
	}
	return work
}

// grantShare simulates the cluster master's in-order grants to the given
// number of single-worker ranks: each task goes to the rank that is free
// first (the lowest-numbered on a tie). It returns the largest rank's share
// of the busy work — the work-unit twin of cluster.max_busy_share.
func grantShare(work []uint64, ranks int) float64 {
	busy := make([]uint64, ranks)
	var total, most uint64
	for _, x := range work {
		r := 0
		for i := range busy {
			if busy[i] < busy[r] {
				r = i
			}
		}
		busy[r] += x
		total += x
	}
	for _, b := range busy {
		most = max(most, b)
	}
	return float64(most) / float64(total)
}

// TestRootTasksBalanceByWorkUnits is the hardware-independent balance check
// for the cluster master's cut: Cycle6Tri on a degree-ordered BA graph with
// hub bitmaps, the cyclic-ba shape, cut for two single-worker ranks. Cut by
// predicted work, in-order grants keep the busier rank at ≤ 0.56 of the work
// units; the equal-size cut at the same task count puts most of the hubs'
// work in its first task and must exceed that, or the fixture no longer
// shows the skew the cutter exists for.
func TestRootTasksBalanceByWorkUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Cycle6Tri counts with telemetry")
	}
	const ranks, bound = 2, 0.56
	g := graph.BarabasiAlbert(20000, 8, 1).Reorder()
	g.BuildHubBitmaps(0, 0)
	cfg := planFor(t, g, pattern.Cycle6Tri())
	b := cfg.Bind(true, TierAuto)
	tasks := b.RootTasks(g, RunOptions{Workers: ranks}, 16)
	n := b.taskSpace(g)
	equal := equalCut(n, (n+len(tasks)-1)/len(tasks))
	if len(tasks) != 16*ranks || len(equal) != len(tasks) {
		t.Fatalf("cut %d tasks by work and %d by size, want %d", len(tasks), len(equal), 16*ranks)
	}
	byWork, bySize := taskWork(cfg, g, tasks), taskWork(cfg, g, equal)
	wShare, sShare := grantShare(byWork, ranks), grantShare(bySize, ranks)
	t.Logf("slots=%v: busy share %.3f cut by work (first task %d units), %.3f cut by size (first task %d units)",
		b.slotTasks(), wShare, byWork[0], sShare, bySize[0])
	if wShare > bound {
		t.Errorf("cut by predicted work: busy share %.3f, want <= %.2f", wShare, bound)
	}
	if sShare <= bound {
		t.Errorf("fixture lost its skew: the equal-size cut's busy share %.3f is already <= %.2f", sShare, bound)
	}
}
