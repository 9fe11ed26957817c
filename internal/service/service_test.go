package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphpi/internal/cluster"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// baFixture is the shared skewed Barabási–Albert fixture: power-law degree
// distribution, optimized view (degree-ordered + hub bitmaps) as a service
// would deploy it.
func baFixture(n, m int, seed uint64) *graph.Graph {
	g := graph.BarabasiAlbert(n, m, seed).Reorder()
	g.BuildHubBitmaps(1<<20, 0)
	return g
}

// newTestServer builds a Server with the fixture registered as "ba".
func newTestServer(t *testing.T, g *graph.Graph, opt Options) *Server {
	t.Helper()
	s := New(opt)
	t.Cleanup(s.Close)
	if err := s.AddGraph("ba", g); err != nil {
		t.Fatal(err)
	}
	return s
}

// startHTTP serves s on a real ephemeral socket and returns its base URL —
// the e2e smoke path exercises genuine HTTP, not httptest shortcuts.
func startHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

// startWorkers spawns n TCP cluster workers serving g and returns their
// addresses.
func startWorkers(t *testing.T, g *graph.Graph, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go cluster.Serve(ln, g, cluster.ServeOptions{})
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServiceE2ESmoke is the CI gate's end-to-end pass over a real socket:
// load a snapshot via the admin endpoint, run a cold count, verify the
// repeat is a cache hit that skipped planning, stream and cancel an
// enumerate, and check the jobs/metrics surfaces.
func TestServiceE2ESmoke(t *testing.T) {
	plain := graph.BarabasiAlbert(600, 5, 42)
	snap := filepath.Join(t.TempDir(), "ba.bin")
	if err := graph.SaveBinaryFile(snap, plain); err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	defer s.Close()
	base := startHTTP(t, s)

	// Load the graph through the admin endpoint, optimizing on the way in.
	body := strings.NewReader(fmt.Sprintf(`{"name":"ba","path":%q,"optimize":true}`, snap))
	resp, err := http.Post(base+"/graphs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /graphs = %d, want 201", resp.StatusCode)
	}
	var graphs []graphInfo
	if code := getJSON(t, base+"/graphs", &graphs); code != 200 || len(graphs) != 1 || !graphs[0].Optimized {
		t.Fatalf("GET /graphs = %d %+v, want one optimized graph", code, graphs)
	}

	// The direct-library answer the service must reproduce.
	sg, _ := s.Graph("ba")
	res, err := core.Plan(pattern.House(), sg.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Best.Bind(true, core.TierAuto).Count(sg, core.RunOptions{})

	// Cold query: a miss that runs the planner.
	var cold queryResult
	if code := getJSON(t, base+"/count?graph=ba&pattern=house", &cold); code != 200 {
		t.Fatalf("cold count status %d", code)
	}
	if cold.Count != want {
		t.Fatalf("cold count = %d, want %d", cold.Count, want)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold query cache = %q, want miss", cold.Cache)
	}
	plansAfterCold := s.MetricsSnapshot().Cache.Plans
	if plansAfterCold < 1 {
		t.Fatalf("cold query ran %d planning runs", plansAfterCold)
	}

	// Cached query: same answer, no planning run, and the planning latency
	// collapses (cold pays restriction+schedule search; a hit is a lookup).
	var warm queryResult
	if code := getJSON(t, base+"/count?graph=ba&pattern=house", &warm); code != 200 {
		t.Fatalf("warm count status %d", code)
	}
	if warm.Count != want || warm.Cache != "hit" {
		t.Fatalf("warm query = count %d cache %q, want %d/hit", warm.Count, warm.Cache, cold.Count)
	}
	if got := s.MetricsSnapshot().Cache.Plans; got != plansAfterCold {
		t.Fatalf("cache hit ran the planner: %d → %d runs", plansAfterCold, got)
	}
	if warm.PlanSec > cold.PlanSec && warm.PlanSec > 0.05 {
		t.Fatalf("hit plan latency %.4fs not below cold %.4fs", warm.PlanSec, cold.PlanSec)
	}

	// An isomorphic respelling of the same pattern (adjacency form with
	// vertices permuted) must hit the same entry: keys are canonical forms.
	permuted := pattern.House().Relabel([]int{4, 2, 0, 1, 3})
	var iso queryResult
	url := base + "/count?graph=ba&pattern=" + fmt.Sprintf("5:%s", permuted.AdjacencyString())
	if code := getJSON(t, url, &iso); code != 200 {
		t.Fatalf("isomorphic count status %d", code)
	}
	if iso.Cache != "hit" || iso.Count != want {
		t.Fatalf("isomorphic respelling: cache %q count %d, want hit/%d", iso.Cache, iso.Count, want)
	}

	// Enumerate: NDJSON lines, then a trailer object, honoring the limit.
	resp, err = http.Get(base + "/enumerate?graph=ba&pattern=triangle&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("enumerate content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 6 {
		t.Fatalf("enumerate returned %d lines, want 5 embeddings + trailer", len(lines))
	}
	var emb []uint32
	if err := json.Unmarshal([]byte(lines[0]), &emb); err != nil || len(emb) != 3 {
		t.Fatalf("first line %q is not a triangle embedding", lines[0])
	}
	var trailer queryResult
	if err := json.Unmarshal([]byte(lines[5]), &trailer); err != nil {
		t.Fatalf("trailer %q: %v", lines[5], err)
	}
	if trailer.Count != 5 || !trailer.Truncated {
		t.Fatalf("trailer = %+v, want count 5 truncated", trailer)
	}

	// Cancelled enumerate: client hangs up mid-stream; the job must end
	// canceled and release its workers.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/enumerate?graph=ba&pattern=house", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	cancel()
	resp.Body.Close()
	waitFor(t, "workers released after cancelled enumerate", func() bool {
		m := s.MetricsSnapshot()
		return m.BusyWorkers == 0 && m.RunningJobs == 0
	})

	// Jobs surface: everything above is on record; unknown ids 404.
	var jobs []JobInfo
	if code := getJSON(t, base+"/jobs", &jobs); code != 200 || len(jobs) < 4 {
		t.Fatalf("GET /jobs = %d with %d jobs, want the session's history", code, len(jobs))
	}
	var byID JobInfo
	if code := getJSON(t, base+"/jobs/"+jobs[0].ID, &byID); code != 200 || byID.ID != jobs[0].ID {
		t.Fatalf("GET /jobs/%s = %d %+v", jobs[0].ID, code, byID)
	}
	if code := getJSON(t, base+"/jobs/j999999", nil); code != 404 {
		t.Fatalf("unknown job status %d, want 404", code)
	}

	var m Metrics
	if code := getJSON(t, base+"/metrics", &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if m.Graphs != 1 || m.Cache.Hits < 2 || m.Jobs.Done < 3 || m.Jobs.Canceled < 1 {
		t.Fatalf("metrics = %+v, want 1 graph, ≥2 hits, ≥3 done, ≥1 canceled", m)
	}
	if code := getJSON(t, base+"/healthz", nil); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
}

// TestServiceCountsBitIdentical is the backend-equivalence acceptance
// criterion: for every evaluation pattern on the skewed BA fixture, the
// direct library call, the service's local backend and the service's
// TestServiceEnumerateRespelling: the plan cache is keyed by the canonical
// form, so a respelled pattern hits the configuration planned for the first
// spelling. /enumerate must still emit embeddings of the pattern as the
// request spells it: emb[i]–emb[j] is an edge of the original graph for
// every edge (i, j) of the requested pattern.
func TestServiceEnumerateRespelling(t *testing.T) {
	orig := graph.BarabasiAlbert(600, 5, 7)
	s := newTestServer(t, baFixture(600, 5, 7), Options{})
	base := startHTTP(t, s)
	respelled := pattern.House().Relabel([]int{4, 2, 0, 1, 3})
	for i, pat := range []*pattern.Pattern{pattern.House(), respelled} {
		spec := fmt.Sprintf("%d:%s", pat.N(), pat.AdjacencyString())
		resp, err := http.Get(base + "/enumerate?graph=ba&limit=2000&pattern=" + spec)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resp.Body.Close()
		if len(lines) != 2001 {
			t.Fatalf("spelling %d: %d lines, want 2000 embeddings + trailer", i, len(lines))
		}
		var trailer queryResult
		if err := json.Unmarshal([]byte(lines[2000]), &trailer); err != nil {
			t.Fatalf("trailer %q: %v", lines[2000], err)
		}
		if wantCache := []string{"miss", "hit"}[i]; trailer.Cache != wantCache {
			t.Fatalf("spelling %d: cache %q, want %q", i, trailer.Cache, wantCache)
		}
		bad := 0
		for _, line := range lines[:2000] {
			var emb []uint32
			if err := json.Unmarshal([]byte(line), &emb); err != nil || len(emb) != pat.N() {
				t.Fatalf("spelling %d: line %q is not an embedding", i, line)
			}
			for _, e := range pat.Edges() {
				if !orig.HasEdge(emb[e[0]], emb[e[1]]) {
					bad++
					break
				}
			}
		}
		if bad > 0 {
			t.Errorf("spelling %d: %d of 2000 embeddings break an edge of the requested pattern", i, bad)
		}
	}
}

// cluster backend produce the same number.
func TestServiceCountsBitIdentical(t *testing.T) {
	g := baFixture(400, 5, 31)
	addrs := startWorkers(t, g, 2)
	s := newTestServer(t, g, Options{ClusterAddrs: addrs, MaxConcurrent: 1})

	for _, p := range pattern.EvaluationPatterns() {
		res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		direct := res.Best.Bind(true, core.TierAuto).Count(g, core.RunOptions{})
		for _, backendName := range []string{"local", "cluster"} {
			qr, err := s.runCount(context.Background(), queryRequest{
				graphName:   "ba",
				patternSpec: fmt.Sprintf("%d:%s", p.N(), p.AdjacencyString()),
				iep:         true,
				backendName: backendName,
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", p, backendName, err)
			}
			if qr.Count != direct {
				t.Errorf("%s: %s backend = %d, direct = %d", p, backendName, qr.Count, direct)
			}
			if qr.Backend != backendName {
				t.Errorf("%s: ran on %q, requested %q", p, qr.Backend, backendName)
			}
		}
	}
}

// TestServiceCacheStampede: N concurrent identical cold queries must
// coalesce onto one planning run — the stampede guard.
func TestServiceCacheStampede(t *testing.T) {
	g := baFixture(300, 4, 7)
	const N = 8
	// N slots of one worker each, so all N queries hold a slot and plan at
	// once whatever GOMAXPROCS is.
	s := newTestServer(t, g, Options{MaxConcurrent: N, TotalWorkers: N})

	counts := make([]int64, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, err := s.runCount(context.Background(), queryRequest{
				graphName:   "ba",
				patternSpec: "p3",
				iep:         true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = qr.Count
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if counts[i] != counts[0] {
			t.Fatalf("query %d count %d != %d", i, counts[i], counts[0])
		}
	}
	if runs := s.MetricsSnapshot().Cache.Plans; runs != 1 {
		t.Fatalf("%d concurrent identical queries ran the planner %d times, want 1", N, runs)
	}
}

// TestServiceCancelledPlanWaiter: a request cancelled while it waits for
// another request's in-flight planning run returns ctx's error at once,
// frees its run slot and is not counted as a cache hit; the request that
// plans runs to the end and leaves the configuration cached. Both requests
// are /explain jobs, which plan and count nothing.
func TestServiceCancelledPlanWaiter(t *testing.T) {
	checkNoLeak(t)
	g := baFixture(300, 4, 7)
	// Two one-worker slots, so the waiter is admitted while the builder plans.
	s := newTestServer(t, g, Options{MaxConcurrent: 2, TotalWorkers: 2})
	// The 8-cycle plans for a quarter second (seconds under -race), long
	// enough to hold the entry in flight while the waiter is cancelled.
	const cycle8 = "8:0100000110100000010100000010100000010100000010100000010110000010"
	req := queryRequest{graphName: "ba", patternSpec: cycle8, iep: true}
	built := make(chan error, 1)
	go func() {
		_, err := s.explain(context.Background(), req)
		built <- err
	}()
	waitFor(t, "the first request planning", func() bool { return s.MetricsSnapshot().Cache.Misses == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waited := make(chan error, 1)
	go func() {
		_, err := s.explain(ctx, req)
		waited <- err
	}()
	waitFor(t, "the second request admitted", func() bool { return s.MetricsSnapshot().RunningJobs == 2 })
	// The waiter may still be computing the pattern's canonical key; it
	// sees the cancellation at the entry either way.
	cancel()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want %v", err, context.Canceled)
		}
	case <-built:
		t.Fatal("the cancelled waiter stayed blocked until the planning run ended")
	}
	select {
	case <-built:
		t.Fatal("the planning run ended with the waiter; the test needs a slower plan")
	default:
	}
	m := s.MetricsSnapshot()
	if m.RunningJobs != 1 || m.BusyWorkers != 1 {
		t.Errorf("after the cancel: running_jobs %d, busy_workers %d; want only the planner's slot (1, 1)",
			m.RunningJobs, m.BusyWorkers)
	}
	if m.Cache.Hits != 0 {
		t.Errorf("the cancelled waiter counted as %d cache hits", m.Cache.Hits)
	}

	if err := <-built; err != nil {
		t.Fatal(err)
	}
	m = s.MetricsSnapshot()
	if m.Cache.Hits != 0 || m.Cache.Plans != 1 || m.Cache.Entries != 1 || m.Jobs.Canceled != 1 || m.Jobs.Done != 1 {
		t.Errorf("after the planning run: cache %+v, jobs %+v; want one entry, one planning run, no hit, one job done and one canceled",
			m.Cache, m.Jobs)
	}
}

// TestServiceTierSelection: the engine picks the executor (the clique kernel
// for k4, the interpreter for the house), the result labels the one that
// ran, counts match the interpreter's, a plan-cache hit runs on the same
// executor, and the removed tier= and aux= parameters are ignored.
func TestServiceTierSelection(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	direct := func(name string) int64 {
		p, err := pattern.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Bind(true, core.TierInterpret).Count(g, core.RunOptions{})
	}
	wantHouse, wantK4 := direct("house"), direct("k4")

	cases := []struct {
		url  string
		tier string
		want int64
	}{
		{"/count?graph=ba&pattern=house", "interpreted", wantHouse}, // auto → interpreter
		{"/count?graph=ba&pattern=k4", "generated", wantK4},         // auto → clique kernel
		// The repeat is a plan-cache hit and runs on the same executor.
		{"/count?graph=ba&pattern=k4", "generated", wantK4},
		// tier= does not override the executor; it is an unknown
		// parameter and ignored like any other.
		{"/count?graph=ba&pattern=k4&tier=interpret", "generated", wantK4},
		// aux= named the removed auxiliary-graph pruning; it is now an
		// unknown parameter and ignored like any other.
		{"/count?graph=ba&pattern=house&aux=force", "interpreted", wantHouse},
	}
	for _, tc := range cases {
		var qr queryResult
		if code := getJSON(t, base+tc.url, &qr); code != 200 {
			t.Fatalf("%s: status %d", tc.url, code)
		}
		if qr.Tier != tc.tier {
			t.Errorf("%s: tier %q, want %q", tc.url, qr.Tier, tc.tier)
		}
		if qr.Count != tc.want {
			t.Errorf("%s: count %d, want %d", tc.url, qr.Count, tc.want)
		}
	}
}

// TestServiceCancelReleasesWorkers: cancelling a running count job frees its
// taskpool workers promptly — far faster than the job would have run — and
// records the job as canceled.
func TestServiceCancelReleasesWorkers(t *testing.T) {
	checkNoLeak(t)
	// Big enough that a full non-IEP house count takes many seconds.
	g := baFixture(30000, 8, 3)
	s := newTestServer(t, g, Options{MaxConcurrent: 1, TotalWorkers: 2})
	base := startHTTP(t, s)

	done := make(chan struct{})
	var status int
	go func() {
		defer close(done)
		status = statusOf(base + "/count?graph=ba&pattern=house&iep=false")
	}()

	// Find the running job.
	var jobID string
	waitFor(t, "count job running", func() bool {
		for _, j := range s.jobs.list() {
			if j.Kind == "count" && j.Status == JobRunning {
				jobID = j.ID
				return true
			}
		}
		return false
	})

	t0 := time.Now()
	resp, err := http.Post(base+"/jobs/"+jobID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled count did not return within 10s")
	}
	latency := time.Since(t0)
	if status != 499 {
		t.Fatalf("cancelled count status = %d, want 499", status)
	}
	waitFor(t, "workers released after cancel", func() bool {
		m := s.MetricsSnapshot()
		return m.BusyWorkers == 0 && m.RunningJobs == 0 && m.QueueDepth == 0
	})
	var j JobInfo
	if code := getJSON(t, base+"/jobs/"+jobID, &j); code != 200 || j.Status != JobCanceled {
		t.Fatalf("job after cancel = %d %+v, want canceled", code, j)
	}
	if m := s.MetricsSnapshot(); m.Jobs.Canceled < 1 {
		t.Fatalf("metrics did not count the cancellation: %+v", m.Jobs)
	}
	t.Logf("cancel-to-release latency: %v", latency)
}

// TestServiceAdmissionControl: with one run slot and a one-deep queue, a
// third concurrent query is shed with ErrQueueFull (HTTP 429).
func TestServiceAdmissionControl(t *testing.T) {
	checkNoLeak(t)
	g := baFixture(20000, 8, 5)
	s := newTestServer(t, g, Options{MaxConcurrent: 1, MaxQueue: 1, TotalWorkers: 1})
	base := startHTTP(t, s)

	slow := base + "/count?graph=ba&pattern=house&iep=false"
	go statusOf(slow)
	waitFor(t, "first job running", func() bool { return s.MetricsSnapshot().RunningJobs == 1 })
	go statusOf(slow)
	waitFor(t, "second job queued", func() bool { return s.MetricsSnapshot().QueueDepth == 1 })

	var rejected queryResult
	code := getJSON(t, base+"/count?graph=ba&pattern=house&iep=false", &rejected)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third concurrent query status = %d, want 429", code)
	}
	if m := s.MetricsSnapshot(); m.Jobs.Rejected < 1 {
		t.Fatalf("rejection not counted: %+v", m.Jobs)
	}
}

// TestServicePanicReleasesSlot: a request that panics while it holds a run
// slot — in the planner, or between begin and end — fails its job and
// returns the slot and its workers before the panic propagates, so the
// one-slot server still answers the next query.
func TestServicePanicReleasesSlot(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{MaxConcurrent: 1, MaxQueue: 1, TotalWorkers: 1})
	// A resident graph with no data: planning it dereferences nil.
	s.graphs["broken"] = &residentGraph{name: "broken", fp: "broken"}
	// A leaked slot makes later requests wait; the deadline turns that wait
	// into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("planning a graph without data", func() {
		s.runCount(ctx, queryRequest{graphName: "broken", patternSpec: "triangle"})
	})
	mustPanic("a panic after planning", func() {
		q, err := s.begin(ctx, "count", queryRequest{graphName: "ba", patternSpec: "triangle"})
		if err != nil {
			t.Errorf("begin: %v", err)
			return
		}
		var count int64
		defer s.end(q, &count, &err)
		panic("backend bug")
	})
	m := s.MetricsSnapshot()
	if m.RunningJobs != 0 || m.BusyWorkers != 0 || m.Jobs.Failed != 2 {
		t.Fatalf("after two panics: running_jobs %d, busy_workers %d, failed %d; want 0, 0, 2",
			m.RunningJobs, m.BusyWorkers, m.Jobs.Failed)
	}
	for _, j := range s.jobs.list() {
		if j.Status != JobFailed {
			t.Errorf("job %s (%s) is %s, want %s", j.ID, j.Graph, j.Status, JobFailed)
		}
	}
	if _, err := s.runCount(ctx, queryRequest{graphName: "ba", patternSpec: "triangle"}); err != nil {
		t.Fatalf("query after the panics: %v", err)
	}
}

// TestServiceExplainBurst: /explain plans inside a run slot, so once the
// slot is taken and the one-deep queue is full, a burst of cold /explain
// requests is shed with 429 — planning nothing — exactly as /count would be.
// Once the running job ends, the queued explain answers, and at rest a cold
// /explain answers too.
func TestServiceExplainBurst(t *testing.T) {
	checkNoLeak(t)
	g := baFixture(20000, 8, 5)
	s := newTestServer(t, g, Options{MaxConcurrent: 1, MaxQueue: 1, TotalWorkers: 1})
	base := startHTTP(t, s)

	go statusOf(base + "/count?graph=ba&pattern=house&iep=false")
	var running string
	waitFor(t, "count job running", func() bool {
		for _, j := range s.jobs.list() {
			if j.Kind == "count" && j.Status == JobRunning {
				running = j.ID
				return true
			}
		}
		return false
	})
	plans := s.MetricsSnapshot().Cache.Plans

	queued := make(chan int, 1)
	go func() { queued <- statusOf(base + "/explain?graph=ba&pattern=p3") }()
	waitFor(t, "explain queued", func() bool { return s.MetricsSnapshot().QueueDepth == 1 })

	burst := []string{"house", "k5", "pentagon", "p5", "cycle6tri"}
	for _, p := range burst {
		if code := getJSON(t, base+"/explain?graph=ba&pattern="+p, nil); code != http.StatusTooManyRequests {
			t.Errorf("cold /explain of %s with the queue full: status %d, want 429", p, code)
		}
	}
	m := s.MetricsSnapshot()
	if m.Jobs.Rejected != int64(len(burst)) {
		t.Errorf("rejected = %d, want %d", m.Jobs.Rejected, len(burst))
	}
	if m.Cache.Plans != plans {
		t.Errorf("shed explains ran the planner: %d → %d runs", plans, m.Cache.Plans)
	}

	resp, err := http.Post(base+"/jobs/"+running+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := <-queued; code != 200 {
		t.Fatalf("queued /explain after the slot freed: status %d, want 200", code)
	}

	var rest explainResult
	if code := getJSON(t, base+"/explain?graph=ba&pattern=k5", &rest); code != 200 || rest.Cache != "miss" {
		t.Fatalf("cold /explain at rest: status %d cache %q, want 200 miss", code, rest.Cache)
	}
}

// TestServiceNeverOversubscribes: each run slot carries its job's worker
// budget, so during a burst of 2 × MaxConcurrent local counts the granted
// budgets never sum past the worker cap — with more workers than slots and
// with fewer (normalize then lowers the slot count).
func TestServiceNeverOversubscribes(t *testing.T) {
	g := baFixture(3000, 8, 11)
	for _, tc := range []struct {
		name         string
		total, slots int
	}{
		{"workers>=slots", 4, 2},
		{"workers<slots", 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeak(t)
			s := newTestServer(t, g, Options{MaxConcurrent: tc.slots, TotalWorkers: tc.total})
			base := startHTTP(t, s)
			codes := make(chan int, 2*tc.slots)
			for i := 0; i < 2*tc.slots; i++ {
				go func() { codes <- statusOf(base + "/count?graph=ba&pattern=house&iep=false") }()
			}
			var maxBusy, maxRunning int
			for done := 0; done < 2*tc.slots; {
				select {
				case code := <-codes:
					if code != 200 {
						t.Errorf("count status %d, want 200", code)
					}
					done++
				default:
					m := s.MetricsSnapshot()
					if m.BusyWorkers > m.WorkerCap {
						t.Fatalf("busy_workers %d > worker_cap %d", m.BusyWorkers, m.WorkerCap)
					}
					maxBusy, maxRunning = max(maxBusy, m.BusyWorkers), max(maxRunning, m.RunningJobs)
					time.Sleep(100 * time.Microsecond)
				}
			}
			if m := s.MetricsSnapshot(); m.WorkerCap != tc.total || m.BusyWorkers != 0 {
				t.Errorf("after the burst: worker_cap %d, busy_workers %d; want %d, 0", m.WorkerCap, m.BusyWorkers, tc.total)
			}
			if slots := min(tc.slots, tc.total); maxRunning > slots || maxBusy == 0 {
				t.Errorf("peak running %d (slots %d), peak busy %d", maxRunning, slots, maxBusy)
			}
			t.Logf("peak running %d, peak busy_workers %d of %d", maxRunning, maxBusy, tc.total)
		})
	}
}

// TestServiceErrorStatuses pins the HTTP error mapping.
func TestServiceErrorStatuses(t *testing.T) {
	s := newTestServer(t, baFixture(100, 3, 1), Options{})
	base := startHTTP(t, s)
	cases := []struct {
		url  string
		want int
	}{
		{"/count?graph=nope&pattern=house", 404},
		{"/count?graph=ba", 400},                // no pattern
		{"/count?graph=ba&pattern=zigzag", 400}, // unknown name
		{"/count?graph=ba&pattern=house&iep=maybe", 400},
		{"/count?graph=ba&pattern=house&backend=gpu", 400},
		{"/count?graph=ba&pattern=house&backend=cluster", 400}, // none configured
		{"/count?graph=ba&pattern=house&workers=-2", 400},
		{"/enumerate?graph=ba&pattern=house&limit=x", 400},
		{"/enumerate?graph=ba&pattern=house&backend=cluster", 400}, // counts only on the wire
		{"/enumerate?graph=ba&pattern=house&backend=gpu", 400},
		// A vertex count whose square wraps to 0 is out of range, not a panic.
		{"/count?graph=ba&pattern=4294967296:", 400},
		{"/enumerate?graph=ba&pattern=4294967296:", 400},
		{"/explain?graph=ba&pattern=4294967296:", 400},
		// Patterns above maxQueryPatternVertices: planning them would hold
		// a run slot for seconds (K10) to minutes (K12).
		{"/count?graph=ba&pattern=k10", 400},
		{"/count?graph=ba&pattern=k12", 400},
		{"/enumerate?graph=ba&pattern=K12", 400},
		{"/explain?graph=ba&pattern=k12", 400},
		{"/count?graph=ba&pattern=" + cycleSpec(10), 400},
		{"/count?pattern=house", 200}, // single resident graph: name optional
	}
	for _, tc := range cases {
		if code := getJSON(t, base+tc.url, nil); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.url, code, tc.want)
		}
	}
	// Every 400 above is answered before a job exists.
	if m := s.MetricsSnapshot(); m.Jobs.Created != 1 {
		t.Errorf("jobs created = %d, want 1 (the house count)", m.Jobs.Created)
	}

	// POST /graphs: a field the body does not have, such as the removed
	// hub_budget, is an error, not a no-op. The last row loads the same
	// snapshot to show the file itself is fine.
	snap := filepath.Join(t.TempDir(), "ba.bin")
	if err := graph.SaveBinaryFile(snap, graph.BarabasiAlbert(100, 3, 1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		extra string
		want  int
	}{
		{`,"hub_budget":-1`, 400},
		{`,"hub_budget":4096`, 400},
		{``, 201},
	} {
		body := fmt.Sprintf(`{"name":"loaded","path":%q,"optimize":true%s}`, snap, tc.extra)
		resp, err := http.Post(base+"/graphs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST /graphs with %s = %d, want %d", tc.extra, resp.StatusCode, tc.want)
		}
	}
}

// cycleSpec spells the n-cycle as an "n:rowmajor01matrix" pattern spec.
func cycleSpec(n int) string {
	m := make([]byte, n*n)
	for i := range m {
		m[i] = '0'
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		m[i*n+j], m[j*n+i] = '1', '1'
	}
	return fmt.Sprintf("%d:%s", n, m)
}

// TestServiceClusterBackendSurvivesCancel: after a cancelled cluster job
// (which abandons its poisoned transport), the next cluster query must
// redial and succeed.
func TestServiceClusterBackendSurvivesCancel(t *testing.T) {
	g := baFixture(20000, 8, 9)
	addrs := startWorkers(t, g, 2)
	s := newTestServer(t, g, Options{ClusterAddrs: addrs, MaxConcurrent: 2})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.runCount(ctx, queryRequest{
			graphName: "ba", patternSpec: "house", backendName: "cluster",
		})
		errc <- err
	}()
	waitFor(t, "cluster job running", func() bool { return s.MetricsSnapshot().RunningJobs == 1 })
	time.Sleep(50 * time.Millisecond) // let the wire job actually start
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled cluster job error = %v, want context.Canceled", err)
	}

	qr, err := s.runCount(context.Background(), queryRequest{
		graphName: "ba", patternSpec: "triangle", iep: true, backendName: "cluster",
	})
	if err != nil {
		t.Fatalf("cluster query after cancel: %v", err)
	}
	res, err := core.Plan(pattern.Triangle(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Best.Bind(true, core.TierAuto).Count(g, core.RunOptions{}); qr.Count != want {
		t.Fatalf("post-cancel cluster count = %d, want %d", qr.Count, want)
	}
}

// killableWorkers spawns n TCP cluster workers whose listeners track their
// accepted connections, and returns their addresses plus per-worker kill
// switches. kill(i) models a crash: the listener closes (no rejoin) and every
// established connection is severed.
func killableWorkers(t *testing.T, g *graph.Graph, n int) ([]string, func(i int)) {
	t.Helper()
	addrs := make([]string, n)
	tls := make([]*trackingListener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &trackingListener{Listener: ln}
		go cluster.Serve(tl, g, cluster.ServeOptions{})
		t.Cleanup(func() { tl.kill() })
		addrs[i], tls[i] = ln.Addr().String(), tl
	}
	return addrs, func(i int) { tls[i].kill() }
}

type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestServiceSurvivesWorkerLoss drives the whole failure model through the
// service: a worker crash mid-job is recovered inside the attempt (exact
// count, loss + re-deal counters move), the crashed worker rejoins for the
// next query, total fleet loss exhausts the retry budget, and /healthz flips
// to 503 once zero workers are live.
func TestServiceSurvivesWorkerLoss(t *testing.T) {
	checkNoLeak(t)
	g := baFixture(2000, 5, 17)
	addrs, kill := killableWorkers(t, g, 3)
	s := newTestServer(t, g, Options{ClusterAddrs: addrs, MaxConcurrent: 1})
	base := startHTTP(t, s)

	if code := getJSON(t, base+"/healthz", nil); code != 200 {
		t.Fatalf("healthz before any job = %d, want 200", code)
	}

	// Swap in a fault-injected view of the same worker fleet: rank 0 dies
	// after completing two tasks of every multi-rank job. Deterministic — no
	// sleeps racing the job's runtime.
	inner, err := cluster.DialTCP(addrs, cluster.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.cluster.mu.Lock()
	s.cluster.tr = cluster.NewFaultyTransport(inner, 0, 2)
	s.cluster.mu.Unlock()

	res, err := core.Plan(pattern.House(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Best.Bind(true, core.TierAuto).Count(g, core.RunOptions{})
	count := func() (int64, error) {
		qr, err := s.runCount(context.Background(), queryRequest{
			graphName: "ba", patternSpec: "house", iep: true, backendName: "cluster",
		})
		if err != nil {
			return 0, err
		}
		return qr.Count, nil
	}

	// Crash mid-job: the survivors re-earn the dead rank's tasks.
	got, err := count()
	if err != nil {
		t.Fatalf("job with crashing worker: %v", err)
	}
	if got != want {
		t.Errorf("count with crashing worker = %d, want %d", got, want)
	}
	var m Metrics
	getJSON(t, base+"/metrics", &m)
	if m.WorkersConfigured != 3 || m.WorkersAlive != 2 {
		t.Errorf("after crash: configured %d alive %d, want 3/2", m.WorkersConfigured, m.WorkersAlive)
	}
	if m.RedealtTotal == 0 {
		t.Error("no re-dealt tasks recorded after a mid-job crash")
	}
	if code := getJSON(t, base+"/healthz", nil); code != 200 {
		t.Error("healthz degraded with two live workers")
	}

	// The crashed worker's process survived: the next job redials it.
	got, err = count()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-rejoin count = %d, want %d", got, want)
	}
	getJSON(t, base+"/metrics", &m)
	if m.RejoinsTotal == 0 {
		t.Error("rejoin not recorded after the worker came back")
	}

	// Total fleet loss: every attempt fails, the retry budget is consumed,
	// and the service reports itself unhealthy.
	for i := range addrs {
		kill(i)
	}
	if _, err := count(); err == nil {
		t.Fatal("query succeeded with every worker dead")
	}
	getJSON(t, base+"/metrics", &m)
	if m.JobRetriesTotal < 2 {
		t.Errorf("job retries = %d, want the full budget (2)", m.JobRetriesTotal)
	}
	if m.WorkersAlive != 0 {
		t.Errorf("workers alive = %d after killing the fleet", m.WorkersAlive)
	}
	if code := getJSON(t, base+"/healthz", nil); code != 503 {
		t.Errorf("healthz with zero live workers = %d, want 503", code)
	}
}

// TestPlanCacheHoldsOrientedConfig: a plan-cache miss runs the orientation
// step, so the cache holds what core.Config.Orient picks — the mirror, for
// the rectangle on a degree-ordered BA graph.
func TestPlanCacheHoldsOrientedConfig(t *testing.T) {
	g := baFixture(2000, 8, 4242)
	s := newTestServer(t, g, Options{})
	rg, err := s.resolveGraph("ba")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Plan(pattern.Rectangle(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, o, err := res.Best.Orient(g, 1)
	if err != nil || !o.Mirrored {
		t.Fatalf("rectangle on the BA fixture: %s (err %v), want mirrored", o, err)
	}
	cfg, _, hit, err := s.plan(context.Background(), rg, pattern.Rectangle(), 1)
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v, want a miss", hit, err)
	}
	if got, wantSet := cfg.Restrictions.String(), want.Restrictions.String(); got != wantSet {
		t.Errorf("cached %s, want %s", got, wantSet)
	}
}

// statusOf GETs url and returns the status code, or -1 when the request
// fails; unlike getJSON it is safe off the test goroutine.
func statusOf(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// checkNoLeak records the goroutine count and, once the test's servers have
// closed (cleanups run last-registered first, so call it before starting
// them), waits for the count to return to that baseline.
func checkNoLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines after Close, %d before the test:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMain keeps test output quiet but surfaces panics.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
