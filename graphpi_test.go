package graphpi

import (
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphpi/internal/graph"
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
	if !strings.Contains(plan.Describe(), "predicted cost") {
		t.Errorf("Describe omits the predicted cost: %s", plan.Describe())
	}
}

func TestEnumerateFacade(t *testing.T) {
	g := &Graph{g: graph.GNM(60, 200, 7)}
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
		if !g.g.HasEdge(emb[0], emb[1]) || !g.g.HasEdge(emb[1], emb[2]) || !g.g.HasEdge(emb[0], emb[2]) {
			t.Fatalf("non-triangle %v", emb)
		}
		return true
	})
	if got != want || n != want {
		t.Errorf("enumerated %d (returned %d), want %d", got, n, want)
	}
}

func TestGraphIO(t *testing.T) {
	g := &Graph{g: graph.GNM(40, 120, 3)}
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
	if Clique(5).NumEdges() != 10 {
		t.Error("K5 edges")
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
	if !loaded.g.IsReordered() {
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
	// Optimize(0) of the reloaded view keeps it as it is, and so keeps
	// reporting the same original ids.
	for name, view := range map[string]*Graph{"loaded": loaded, "loaded.Optimize(0)": loaded.Optimize(0)} {
		pl, err := NewPlan(view, p, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		pl.Enumerate(func(emb []uint32) bool {
			n++
			if !want[key(emb)] {
				t.Fatalf("%s: embedding %v not in original-id reference set", name, emb)
			}
			return true
		})
		if int(n) != len(want) {
			t.Errorf("%s: enumerated %d embeddings, want %d", name, n, len(want))
		}
	}
}

func TestRMATGenerator(t *testing.T) {
	g := &Graph{g: graph.RMAT(10, 3000, 0.57, 0.19, 0.19, 5)}
	if g.NumVertices() != 1024 {
		t.Errorf("RMAT vertices = %d", g.NumVertices())
	}
	if g.Degree(0) < 0 || len(g.Neighbors(0)) != g.Degree(0) {
		t.Error("accessor mismatch")
	}
}

func TestGenerateSourceFacade(t *testing.T) {
	g := &Graph{g: graph.GNM(50, 150, 1)}
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

// TestNewGraphRejectsBadInput: a negative vertex count used to panic in
// makeslice and an out-of-range endpoint silently grew the graph past n.
func TestNewGraphRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges [][2]uint32
	}{
		{-1, nil},
		{2, [][2]uint32{{0, 5}}},
	} {
		if g, err := NewGraph(tc.n, tc.edges); err == nil {
			t.Errorf("NewGraph(%d, %v) = %d vertices, want an error", tc.n, tc.edges, g.NumVertices())
		}
	}
	g, err := NewGraph(3, [][2]uint32{{0, 1}})
	if err != nil || g.NumVertices() != 3 {
		t.Fatalf("NewGraph(3, {0,1}) = %v, %v; want 3 vertices", g, err)
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
	if !og.g.IsReordered() || g.g.IsReordered() {
		t.Fatalf("reordered flags wrong: og=%v g=%v", og.g.IsReordered(), g.g.IsReordered())
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
		if !g.g.HasEdge(emb[0], emb[1]) || !g.g.HasEdge(emb[1], emb[2]) || !g.g.HasEdge(emb[0], emb[2]) {
			t.Fatalf("embedding %v is not a triangle in original ids", emb)
		}
		return true
	})
	if n <= 0 {
		t.Fatal("no triangles enumerated")
	}
}

// TestTCPClusterFacade exercises the full distributed facade: ServeCluster
// workers, a ConnectCluster handle running several jobs, and the
// graph-mismatch guard.
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
	c, err := ConnectCluster(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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

	// A different graph must be rejected by the fingerprint check.
	other := GenerateBA(401, 5, 31)
	if _, err := c.Count(other, p, ClusterOptions{}); err == nil {
		t.Error("mismatched graph accepted by TCP workers")
	}
}

// TestClusterFacadeConcurrentCounts: a Cluster handle is safe for concurrent
// use. Two goroutines run several rounds of Count on one ConnectCluster
// handle against two ServeCluster workers, and every count equals the local
// one.
func TestClusterFacadeConcurrentCounts(t *testing.T) {
	const callers, rounds = 2, 5
	g := GenerateBA(3000, 5, 7)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ServeCluster("127.0.0.1:0", g, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	c, err := ConnectCluster(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pats := []*Pattern{House(), Triangle()}
	want := make([]int64, len(pats))
	for i, p := range pats {
		if want[i], err = Count(g, p); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, callers*rounds)
	var wg sync.WaitGroup
	for k := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (k + r) % len(pats)
				res, err := c.Count(g, pats[i], ClusterOptions{WorkersPerNode: 1, UseIEP: true})
				switch {
				case err != nil:
					errs <- fmt.Errorf("caller %d round %d: %w", k, r, err)
				case res.Count != want[i]:
					errs <- fmt.Errorf("caller %d round %d: %s count = %d, want %d", k, r, pats[i].Name(), res.Count, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHubBudgetSingleMeaning: a hub budget means the same thing in every
// entry point. Optimize and BuildHubBitmaps on the reordered graph must build
// the same hub set for a budget that binds, whatever GOMAXPROCS is; the
// service's POST /graphs "optimize" builds the default budget's set, and
// refuses the removed hub_budget.
func TestHubBudgetSingleMeaning(t *testing.T) {
	const budget = 4*4096 + 8*512 // the vertex index and eight 4096-bit rows
	g := GenerateBA(4096, 4, 17)
	ref := g.g.Reorder()
	if all := ref.BuildHubBitmaps(0, 0); all <= 8 {
		t.Fatalf("budget does not bind: only %d vertices reach the hub degree floor", all)
	}
	defHubs, defBytes := ref.NumHubs(), ref.HubMemoryBytes()
	wantHubs := ref.BuildHubBitmaps(budget, 0)
	wantBytes := ref.HubMemoryBytes()
	if wantHubs != 8 {
		t.Fatalf("BuildHubBitmaps(%d) built %d hubs, want 8", budget, wantHubs)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 64} {
		runtime.GOMAXPROCS(procs)
		og := g.Optimize(budget).g
		if og.NumHubs() != wantHubs || og.HubMemoryBytes() != wantBytes {
			t.Errorf("GOMAXPROCS=%d: Optimize built %d hubs (%d B), BuildHubBitmaps %d (%d B)",
				procs, og.NumHubs(), og.HubMemoryBytes(), wantHubs, wantBytes)
		}
	}

	snap := filepath.Join(t.TempDir(), "ba.bin")
	if err := g.SaveBinary(snap); err != nil {
		t.Fatal(err)
	}
	s := service.New(service.Options{})
	defer s.Close()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs", strings.NewReader(body)))
		return rec
	}
	if rec := post(fmt.Sprintf(`{"name":"ba","path":%q,"optimize":true,"hub_budget":%d}`, snap, budget)); rec.Code != http.StatusBadRequest {
		t.Errorf("POST /graphs with hub_budget = %d, want 400: %s", rec.Code, rec.Body)
	}
	if rec := post(fmt.Sprintf(`{"name":"ba","path":%q,"optimize":true}`, snap)); rec.Code != http.StatusCreated {
		t.Fatalf("POST /graphs = %d: %s", rec.Code, rec.Body)
	}
	sg, _ := s.Graph("ba")
	if sg.NumHubs() != defHubs || sg.HubMemoryBytes() != defBytes {
		t.Errorf("service optimize built %d hubs (%d B), BuildHubBitmaps at the default budget %d (%d B)",
			sg.NumHubs(), sg.HubMemoryBytes(), defHubs, defBytes)
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

// TestParsePatternFacade pins the one pattern spelling of the facade, the
// CLI and the query service: names in any case and the n:matrix form.
func TestParsePatternFacade(t *testing.T) {
	for _, tc := range []struct {
		spec        string
		n, edges    int
		name, wantE string // wantE: an error substring, "" for a valid spec
	}{
		{spec: "house", n: 5, edges: 6, name: "House"},
		{spec: "HOUSE", n: 5, edges: 6, name: "House"},
		{spec: "p3", n: 6, edges: 8, name: "P3-Cycle6Tri"},
		{spec: "Cycle6Tri", n: 6, edges: 8, name: "Cycle6Tri"},
		{spec: "k4", n: 4, edges: 6, name: "K4"},
		{spec: "k12", n: 12, edges: 66, name: "K12"},
		{spec: "3:011101110", n: 3, edges: 3, name: "custom"},
		{spec: " 4 : 0101101001011010", n: 4, edges: 4, name: "custom"},
		{spec: "zigzag", wantE: "unknown"},
		{spec: "", wantE: "unknown"},
		{spec: "k2", wantE: "out of range"},
		{spec: "k13", wantE: "out of range"},
		{spec: "p7", wantE: "unknown"},
		{spec: "x:011101110", wantE: "bad size"},
		{spec: "13:0", wantE: "out of range"},
		{spec: "3:0111", wantE: "want 9"},
	} {
		p, err := ParsePattern(tc.spec)
		switch {
		case tc.wantE != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantE) {
				t.Errorf("ParsePattern(%q) = %v, %v; want an error containing %q", tc.spec, p, err, tc.wantE)
			}
		case err != nil:
			t.Errorf("ParsePattern(%q): %v", tc.spec, err)
		case p.N() != tc.n || p.NumEdges() != tc.edges || p.Name() != tc.name:
			t.Errorf("ParsePattern(%q) = %s named %q, want %d vertices, %d edges, name %q",
				tc.spec, p, p.Name(), tc.n, tc.edges, tc.name)
		}
	}
}

// TestNewPlanOrientation covers the facade's side of the orientation step
// and of the plan memo: on an Optimize()d graph the first plan of a pattern
// probes and says so in Describe and the plan span; concurrent and repeated
// plans of it are memo hits that reuse the one configuration and decision,
// each reporting only its own lookup time as PrepTime; and a graph that is
// not degree-ordered is never oriented.
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

	const concurrent, repeated = 4, 3
	var wg sync.WaitGroup
	plans := make([]*Plan, concurrent+repeated)
	errs := make([]error, len(plans))
	for i := range concurrent {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = NewPlan(g, Rectangle(), WithWorkers(2))
		}(i)
	}
	wg.Wait()
	for i := concurrent; i < len(plans); i++ {
		t0 := time.Now()
		plans[i], errs[i] = NewPlan(g, Rectangle())
		if wall := time.Since(t0); errs[i] == nil && plans[i].PrepTime() > wall {
			t.Errorf("plan %d: PrepTime %v exceeds the %v the call took", i, plans[i].PrepTime(), wall)
		}
	}
	want := first.CountIEP()
	for i, pl := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if pl.cfg != first.cfg || pl.orient != first.orient {
			t.Errorf("plan %d probed again or decided differently: %s", i, pl.Describe())
		}
		if !strings.Contains(pl.Describe(), "orientation mirrored at depth 2") {
			t.Errorf("plan %d: %s, want mirrored at depth 2", i, pl.Describe())
		}
		if got := pl.CountIEP(); got != want {
			t.Errorf("plan %d: CountIEP %d, want %d", i, got, want)
		}
	}
	if st := g.plans.Stats(); st.Plans != 1 || st.Hits != concurrent+repeated {
		t.Errorf("%d plans of one pattern ran the planner and probe %d times with %d memo hits, want 1 and %d",
			1+concurrent+repeated, st.Plans, st.Hits, concurrent+repeated)
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

// TestFacadeSurface pins the exported names of graphpi.go, found with the
// rule the benchmark's surface.exported_symbols count uses: exported funcs
// and methods (a method listed as Type.Method), types, constants and
// variables. A name added or removed shows up here as a reviewed change of
// the list.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		"AuxMode", "AuxOff", "AuxOn", "Clique", "Cluster", "Cluster.Close",
		"Cluster.Count", "ClusterCount", "ClusterOptions", "ClusterResult",
		"ClusterResult.MaxBusyShare", "ClusterServer", "ClusterServer.Addr",
		"ClusterServer.Close", "ClusterServer.Wait", "ConnectCluster", "Count",
		"Cycle6Tri", "DatasetNames", "DriftReport", "GenerateBA", "Graph",
		"Graph.Degree", "Graph.Name", "Graph.Neighbors", "Graph.NumEdges",
		"Graph.NumVertices", "Graph.Optimize", "Graph.SaveBinary",
		"Graph.StatsString", "Graph.Triangles", "House", "LevelStats",
		"LoadDataset", "LoadGraph", "Motifs", "NewGraph", "NewPattern",
		"NewPlan", "NewRunStats", "NewTracer", "Option", "ParsePattern",
		"Pattern", "Pattern.N", "Pattern.Name", "Pattern.NumEdges",
		"Pattern.String", "Pentagon", "Plan", "Plan.Count", "Plan.CountCtx",
		"Plan.CountIEP", "Plan.CountIEPCtx", "Plan.Describe", "Plan.Drift",
		"Plan.Enumerate", "Plan.EnumerateCtx", "Plan.ExecutionTier",
		"Plan.GenerateSource", "Plan.PrepTime", "QueryServer",
		"QueryServer.Addr", "QueryServer.Close", "QueryServer.Handler",
		"QueryServer.Wait", "QueryServiceOptions", "Rectangle", "RunStats",
		"ServeCluster", "ServeQueries", "Tier", "TierAuto", "TierCompiled",
		"TierGenerated", "TierInterpreted", "Tracer", "Triangle", "WithAux",
		"WithRunStats", "WithTier", "WithTracer", "WithWorkers",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "graphpi.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			got = append(got, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						got = append(got, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("exported names of graphpi.go (%d):\n got  %q\n want %q", len(got), got, want)
	}
}
