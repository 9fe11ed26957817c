package graphpi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphpi/internal/service"
)

func TestQuickstartFlow(t *testing.T) {
	g := GenerateBA(500, 5, 42)
	p := House()
	plan, err := NewPlan(g, p, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	count := plan.Count()
	if count <= 0 {
		t.Fatalf("house count = %d, want > 0", count)
	}
	if got := plan.CountIEP(); got != count {
		t.Errorf("CountIEP = %d, want %d", got, count)
	}
	oneShot, err := Count(g, p, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if oneShot != count {
		t.Errorf("Count = %d, want %d", oneShot, count)
	}
	if plan.PrepTime() <= 0 || plan.Describe() == "" {
		t.Error("plan metadata missing")
	}
	if plan.PredictedCost() <= 0 {
		t.Error("predicted cost missing")
	}
}

func TestEnumerateFacade(t *testing.T) {
	g := GenerateGNM(60, 200, 7)
	p := Triangle()
	plan, err := NewPlan(g, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count()
	var got int64
	n := plan.Enumerate(func(emb []uint32) bool {
		got++
		if len(emb) != 3 {
			t.Fatalf("embedding size %d", len(emb))
		}
		if !g.HasEdge(emb[0], emb[1]) || !g.HasEdge(emb[1], emb[2]) || !g.HasEdge(emb[0], emb[2]) {
			t.Fatalf("non-triangle %v", emb)
		}
		return true
	})
	if got != want || n != want {
		t.Errorf("enumerated %d (returned %d), want %d", got, n, want)
	}
}

func TestGraphIO(t *testing.T) {
	g := GenerateGNM(40, 120, 3)
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := g.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraph(bin)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != 40 || loaded.NumEdges() != 120 {
		t.Errorf("binary round trip: %d/%d", loaded.NumVertices(), loaded.NumEdges())
	}
	// Text edge list path.
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte("# c\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tg, err := LoadGraph(txt)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumEdges() != 3 || tg.Triangles() != 1 {
		t.Errorf("text load: %d edges %d triangles", tg.NumEdges(), tg.Triangles())
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	rg, err := ReadGraph(strings.NewReader("0 1\n"))
	if err != nil || rg.NumEdges() != 1 {
		t.Errorf("ReadGraph: %v %v", rg, err)
	}
}

func TestDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("datasets = %v", names)
	}
	g, err := LoadDataset("WikiVote-S", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 || g.StatsString() == "" {
		t.Error("dataset empty")
	}
	if _, err := LoadDataset("bogus", 1); err == nil {
		t.Error("bogus dataset accepted")
	}
}

func TestPatternConstructors(t *testing.T) {
	if _, err := NewPattern(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, "tri"); err != nil {
		t.Error(err)
	}
	if _, err := NewPattern(2, [][2]int{{0, 5}}, "bad"); err == nil {
		t.Error("bad pattern accepted")
	}
	p, err := PatternFromAdjacency(3, "011101110", "tri")
	if err != nil || p.NumEdges() != 3 {
		t.Errorf("adjacency parse: %v %v", p, err)
	}
	if Clique(5).NumEdges() != 10 {
		t.Error("K5 edges")
	}
	evals := EvaluationPatterns()
	if len(evals) != 6 {
		t.Fatalf("evaluation patterns = %d", len(evals))
	}
	for i, p := range evals {
		if p.Name() == "" || p.N() < 5 {
			t.Errorf("P%d malformed: %v", i+1, p)
		}
	}
	if got := len(Motifs(4)); got != 6 {
		t.Errorf("4-motifs = %d, want 6", got)
	}
}

func TestClusterCountFacade(t *testing.T) {
	g := GenerateBA(300, 4, 21)
	p := House()
	want, err := Count(g, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterCount(g, p, ClusterOptions{Nodes: 3, WorkersPerNode: 2, UseIEP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("cluster count = %d, want %d", res.Count, want)
	}
	if len(res.TasksPerNode) != 3 {
		t.Errorf("TasksPerNode = %v", res.TasksPerNode)
	}
	if len(res.BusyPerNode) != 3 {
		t.Errorf("BusyPerNode = %v", res.BusyPerNode)
	}
	if res.Tasks <= 0 {
		t.Errorf("Tasks = %d, want > 0", res.Tasks)
	}
}

// TestClusterCountHybridEquivalence pins the facade's distributed counts to
// the single-node engine across {plain, IEP} x {1, N} nodes on both the
// original and Optimize()d graph for the named pattern suite, with the task
// shape and cut the master picks. Forced shapes and small tasks are
// cluster.TestClusterHybridEquivalence's.
func TestClusterCountHybridEquivalence(t *testing.T) {
	g := GenerateBA(250, 5, 17)
	og := g.Optimize(1 << 22)
	suite := []*Pattern{Triangle(), Rectangle(), House(), Cycle6Tri()}
	for _, p := range suite {
		want, err := Count(g, p, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for gi, dg := range []*Graph{g, og} {
			for _, useIEP := range []bool{false, true} {
				for _, nodes := range []int{1, 3} {
					res, err := ClusterCount(dg, p, ClusterOptions{
						Nodes:          nodes,
						WorkersPerNode: 2,
						UseIEP:         useIEP,
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
}

// TestOptimizedSnapshotRoundTrip pins the headline snapshot fix: an
// Optimize()d graph survives SaveBinary→LoadGraph with Enumerate still
// reporting original vertex ids (pre-fix, the reorder map was silently
// dropped and internal ids leaked out).
func TestOptimizedSnapshotRoundTrip(t *testing.T) {
	g := GenerateBA(300, 5, 33)
	og := g.Optimize(0)
	path := filepath.Join(t.TempDir(), "opt.bin")
	if err := og.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.IsOptimized() {
		t.Fatal("loaded snapshot lost the hybrid view")
	}
	p := Triangle()
	ref, err := NewPlan(g, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// The two plans pick restriction orientations over different internal id
	// orders, so the same triangle can surface as different automorphic
	// representatives; compare as vertex sets.
	key := func(emb []uint32) [3]uint32 {
		k := [3]uint32{emb[0], emb[1], emb[2]}
		sort.Slice(k[:], func(i, j int) bool { return k[i] < k[j] })
		return k
	}
	want := map[[3]uint32]bool{}
	ref.Enumerate(func(emb []uint32) bool {
		want[key(emb)] = true
		return true
	})
	pl, err := NewPlan(loaded, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	pl.Enumerate(func(emb []uint32) bool {
		n++
		if !want[key(emb)] {
			t.Fatalf("embedding %v not in original-id reference set", emb)
		}
		return true
	})
	if int(n) != len(want) {
		t.Errorf("enumerated %d embeddings, want %d", n, len(want))
	}
}

func TestRMATGenerator(t *testing.T) {
	g := GenerateRMAT(10, 3000, 5)
	if g.NumVertices() != 1024 {
		t.Errorf("RMAT vertices = %d", g.NumVertices())
	}
	if g.Degree(0) < 0 || len(g.Neighbors(0)) != g.Degree(0) {
		t.Error("accessor mismatch")
	}
}

func TestGenerateSourceFacade(t *testing.T) {
	g := GenerateGNM(50, 150, 1)
	plan, err := NewPlan(g, Triangle())
	if err != nil {
		t.Fatal(err)
	}
	src, err := plan.GenerateSource()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package main") || !strings.Contains(src, "countEmbeddings") {
		t.Error("generated source malformed")
	}
}

func TestNewGraphFacade(t *testing.T) {
	g, err := NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Count(g, Rectangle(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Errorf("rectangle count in C4 = %d, want 1", c)
	}
	if got, _ := Count(g, Pentagon(), WithWorkers(1)); got != 0 {
		t.Errorf("pentagon in C4 = %d", got)
	}
	if got, _ := Count(g, Cycle6Tri(), WithWorkers(1)); got != 0 {
		t.Errorf("cycle6tri in C4 = %d", got)
	}
}

func TestOptimizeFacade(t *testing.T) {
	g := GenerateBA(800, 5, 9)
	og := g.Optimize(0)
	if !og.IsOptimized() || g.IsOptimized() {
		t.Fatalf("IsOptimized flags wrong: og=%v g=%v", og.IsOptimized(), g.IsOptimized())
	}
	if og.NumVertices() != g.NumVertices() || og.NumEdges() != g.NumEdges() {
		t.Fatal("Optimize changed graph size")
	}
	p := House()
	want, err := Count(g, p, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithWorkers(2)},
		{WithWorkers(1)},
	} {
		got, err := Count(og, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("optimized count = %d, want %d", got, want)
		}
	}
	// Enumerate on the optimized view must report original vertex ids:
	// every reported embedding must be an embedding of the ORIGINAL graph.
	plan, err := NewPlan(og, Triangle(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	n := plan.Enumerate(func(emb []uint32) bool {
		if !g.HasEdge(emb[0], emb[1]) || !g.HasEdge(emb[1], emb[2]) || !g.HasEdge(emb[0], emb[2]) {
			t.Fatalf("embedding %v is not a triangle in original ids", emb)
		}
		return true
	})
	if n <= 0 {
		t.Fatal("no triangles enumerated")
	}
}

// TestTCPClusterFacade exercises the full distributed facade: ServeCluster
// workers, a ConnectCluster handle running several jobs, the one-shot
// ClusterOptions.Workers path, and the graph-mismatch guard.
func TestTCPClusterFacade(t *testing.T) {
	g := GenerateBA(400, 5, 31)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ServeCluster("127.0.0.1:0", g, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}

	p := House()
	want, err := ClusterCount(g, p, ClusterOptions{Nodes: 2, WorkersPerNode: 2, UseIEP: true})
	if err != nil {
		t.Fatal(err)
	}

	c, err := ConnectCluster(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", c.Workers())
	}
	for _, pat := range []*Pattern{Triangle(), p} {
		res, err := c.Count(g, pat, ClusterOptions{WorkersPerNode: 2, UseIEP: true})
		if err != nil {
			t.Fatal(err)
		}
		single, err := Count(g, pat)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != single {
			t.Errorf("%s: TCP count = %d, want %d", pat.Name(), res.Count, single)
		}
		if len(res.TasksPerNode) != 2 {
			t.Errorf("%s: %d ranks, want 2", pat.Name(), len(res.TasksPerNode))
		}
	}

	// One-shot path: ClusterOptions.Workers dials, counts, disconnects.
	res, err := ClusterCount(g, p, ClusterOptions{WorkersPerNode: 2, UseIEP: true, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count {
		t.Errorf("one-shot TCP count = %d, want %d", res.Count, want.Count)
	}

	// A different graph must be rejected by the fingerprint check.
	other := GenerateBA(401, 5, 31)
	if _, err := c.Count(other, p, ClusterOptions{}); err == nil {
		t.Error("mismatched graph accepted by TCP workers")
	}
}

// TestOptimizeHubsFacade covers the hub degree-floor plumbing: an explicit
// floor changes hub admission while counts stay exact.
func TestOptimizeHubsFacade(t *testing.T) {
	g := GenerateBA(800, 5, 9)
	if og := g.OptimizeHubs(0, 0); !og.IsOptimized() {
		t.Fatal("OptimizeHubs(0,0) should behave like Optimize(0)")
	}
	low := g.OptimizeHubs(0, 1)
	high := g.OptimizeHubs(0, 1<<20)
	p := House()
	want, err := Count(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, og := range map[string]*Graph{"floor1": low, "floorHuge": high} {
		got, err := Count(og, p, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: count = %d, want %d", name, got, want)
		}
	}
}

// TestHubBudgetSingleMeaning: a hub budget means the same thing in every
// entry point. OptimizeHubs, BuildHubBitmaps on the reordered graph and the
// service's POST /graphs hub_budget must build the same hub set for a budget
// that binds, whatever GOMAXPROCS is.
func TestHubBudgetSingleMeaning(t *testing.T) {
	const budget, floor = 480 << 10, 1
	g := GenerateBA(4096, 4, 17)
	ref := g.g.Reorder()
	wantHubs := ref.BuildHubBitmaps(budget, floor)
	wantBytes := ref.HubMemoryBytes()
	if wantHubs == 0 || wantHubs == g.NumVertices() {
		t.Fatalf("budget does not bind: %d of %d vertices are hubs", wantHubs, g.NumVertices())
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 64} {
		runtime.GOMAXPROCS(procs)
		og := g.OptimizeHubs(budget, floor).g
		if og.NumHubs() != wantHubs || og.HubMemoryBytes() != wantBytes {
			t.Errorf("GOMAXPROCS=%d: OptimizeHubs built %d hubs (%d B), BuildHubBitmaps %d (%d B)",
				procs, og.NumHubs(), og.HubMemoryBytes(), wantHubs, wantBytes)
		}
	}

	snap := filepath.Join(t.TempDir(), "ba.bin")
	if err := g.SaveBinary(snap); err != nil {
		t.Fatal(err)
	}
	s := service.New(service.Options{})
	defer s.Close()
	body := fmt.Sprintf(`{"name":"ba","path":%q,"optimize":true,"hub_budget":%d,"hub_floor":%d}`, snap, budget, floor)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /graphs = %d: %s", rec.Code, rec.Body)
	}
	sg, _ := s.Graph("ba")
	if sg.NumHubs() != wantHubs || sg.HubMemoryBytes() != wantBytes {
		t.Errorf("service hub_budget built %d hubs (%d B), BuildHubBitmaps %d (%d B)",
			sg.NumHubs(), sg.HubMemoryBytes(), wantHubs, wantBytes)
	}
}

// TestPlanConcurrentUse: one Plan shared by many goroutines running Count,
// CountIEP and Enumerate simultaneously must stay correct — the compiled
// configuration is read-only at execution time and all mutable state is
// per-run. (The query service relies on exactly this: one cached plan
// serves every concurrent job.) Run under -race.
func TestPlanConcurrentUse(t *testing.T) {
	g := GenerateBA(400, 5, 13)
	plan, err := NewPlan(g, House(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.CountIEP()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if got := plan.Count(); got != want {
					errs <- fmt.Errorf("goroutine %d: Count = %d, want %d", i, got, want)
				}
			case 1:
				if got := plan.CountIEP(); got != want {
					errs <- fmt.Errorf("goroutine %d: CountIEP = %d, want %d", i, got, want)
				}
			default:
				var n atomic.Int64
				if got := plan.Enumerate(func([]uint32) bool { n.Add(1); return true }); got != want || n.Load() != want {
					errs <- fmt.Errorf("goroutine %d: Enumerate = %d visits %d, want %d", i, got, n.Load(), want)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCtxFacade covers the facade's context methods: complete runs
// agree with the plain methods; a pre-cancelled context returns promptly
// with the context error.
func TestPlanCtxFacade(t *testing.T) {
	g := GenerateBA(300, 4, 21)
	plan, err := NewPlan(g, Pentagon(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.CountIEP()
	if got, err := plan.CountIEPCtx(context.Background()); err != nil || got != want {
		t.Fatalf("CountIEPCtx = %d, %v; want %d, nil", got, err, want)
	}
	if got, err := plan.CountCtx(context.Background()); err != nil || got != want {
		t.Fatalf("CountCtx = %d, %v; want %d, nil", got, err, want)
	}
	var visits atomic.Int64
	if got, err := plan.EnumerateCtx(context.Background(), func([]uint32) bool { visits.Add(1); return true }); err != nil || got != want {
		t.Fatalf("EnumerateCtx = %d, %v; want %d, nil", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := plan.CountCtx(ctx); err != context.Canceled || got != 0 {
		t.Fatalf("pre-cancelled CountCtx = %d, %v", got, err)
	}
}

// TestQueryServiceFacade drives ServeQueries end to end: a resident graph
// served over a real socket, a cold and a cached count, and a named-pattern
// parse — the README quickstart, as a test.
func TestQueryServiceFacade(t *testing.T) {
	g := GenerateBA(400, 5, 17).Optimize(1 << 20)
	srv, err := ServeQueries("127.0.0.1:0", QueryServiceOptions{
		Graphs: map[string]*Graph{"ba": g},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want, err := Count(g, House())
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Count int64  `json:"count"`
		Cache string `json:"cache"`
	}
	for i, wantCache := range []string{"miss", "hit"} {
		resp, err := http.Get("http://" + srv.Addr() + "/count?graph=ba&pattern=house")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if res.Count != want || res.Cache != wantCache {
			t.Fatalf("query %d: count %d cache %q, want %d %q", i, res.Count, res.Cache, want, wantCache)
		}
	}
}

// TestNamedPatternFacade pins the shared pattern-name resolution.
func TestNamedPatternFacade(t *testing.T) {
	for name, wantN := range map[string]int{
		"house": 5, "HOUSE": 5, "p3": 6, "k4": 4, "cycle6tri": 6, "k12": 12,
	} {
		p, err := NamedPattern(name)
		if err != nil {
			t.Errorf("NamedPattern(%q): %v", name, err)
			continue
		}
		if p.N() != wantN {
			t.Errorf("NamedPattern(%q).N() = %d, want %d", name, p.N(), wantN)
		}
	}
	for _, bad := range []string{"zigzag", "k2", "k13", "p7", ""} {
		if _, err := NamedPattern(bad); err == nil {
			t.Errorf("NamedPattern(%q) accepted", bad)
		}
	}
	p, err := ParsePattern("3:011101110")
	if err != nil || p.N() != 3 || p.NumEdges() != 3 {
		t.Fatalf("ParsePattern adjacency = %v, %v", p, err)
	}
}

// TestNewPlanOrientation covers the facade's side of the orientation step:
// on an Optimize()d graph the first plan of a configuration probes and says
// so in Describe and the plan span, concurrent and later plans of it reuse
// that one decision, and a graph that is not degree-ordered is never
// oriented.
func TestNewPlanOrientation(t *testing.T) {
	raw := GenerateBA(2000, 8, 4242)
	g := raw.Optimize(0)
	var events strings.Builder
	first, err := NewPlan(g, Rectangle(), WithTracer(NewTracer(&events)))
	if err != nil {
		t.Fatal(err)
	}
	if !first.orient.Mirrored || !strings.Contains(first.Describe(), "orientation mirrored at depth 2") {
		t.Errorf("rectangle on the optimized BA graph: %s, want mirrored at depth 2", first.Describe())
	}
	if !strings.Contains(events.String(), `"orientation":"mirrored at depth 2`) {
		t.Errorf("plan span does not state the decision: %s", events.String())
	}

	var wg sync.WaitGroup
	plans := make([]*Plan, 4)
	errs := make([]error, len(plans))
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = NewPlan(g, Rectangle(), WithWorkers(2))
		}(i)
	}
	wg.Wait()
	want := first.CountIEP()
	for i, pl := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if pl.cfg != first.cfg || pl.orient != first.orient {
			t.Errorf("plan %d probed again or decided differently: %s", i, pl.Describe())
		}
		if got := pl.CountIEP(); got != want {
			t.Errorf("plan %d: CountIEP %d, want %d", i, got, want)
		}
	}
	if len(g.oriented) != 1 {
		t.Errorf("%d orientation decisions memoised for one configuration", len(g.oriented))
	}

	unopt, err := NewPlan(raw, Rectangle())
	if err != nil {
		t.Fatal(err)
	}
	if unopt.orient.Probed || !strings.Contains(unopt.Describe(), "orientation kept (not probed)") {
		t.Errorf("unoptimized graph: %s, want the planned set unprobed", unopt.Describe())
	}
	if got := unopt.CountIEP(); got != want {
		t.Errorf("unoptimized graph: CountIEP %d, want %d", got, want)
	}
}
