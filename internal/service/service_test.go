package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
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
	want := res.Best.CountIEP(sg, core.RunOptions{})

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
	plansAfterCold := s.PlanningRuns()
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
	if got := s.PlanningRuns(); got != plansAfterCold {
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
		direct := res.Best.CountIEP(g, core.RunOptions{})
		for _, backendName := range []string{"local", "cluster"} {
			qr, err := s.runCount(context.Background(), queryRequest{
				graphName:   "ba",
				patternSpec: fmt.Sprintf("%d:%s", p.N(), p.AdjacencyString()),
				useIEP:      true,
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
	s := newTestServer(t, g, Options{MaxConcurrent: 8})

	const N = 8
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
				useIEP:      true,
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
	if runs := s.PlanningRuns(); runs != 1 {
		t.Fatalf("%d concurrent identical queries ran the planner %d times, want 1", N, runs)
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
		return res.Best.CountIEP(g, core.RunOptions{Tier: core.TierInterpret})
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
	// Big enough that a full non-IEP house count takes many seconds.
	g := baFixture(30000, 8, 3)
	s := newTestServer(t, g, Options{MaxConcurrent: 1, TotalWorkers: 2})
	base := startHTTP(t, s)

	done := make(chan struct{})
	var status int
	go func() {
		defer close(done)
		resp, err := http.Get(base + "/count?graph=ba&pattern=house&iep=false")
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
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
	g := baFixture(20000, 8, 5)
	s := newTestServer(t, g, Options{MaxConcurrent: 1, MaxQueue: 1, TotalWorkers: 1})
	base := startHTTP(t, s)

	slow := func() int {
		resp, err := http.Get(base + "/count?graph=ba&pattern=house&iep=false")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	go slow()
	waitFor(t, "first job running", func() bool { return s.MetricsSnapshot().RunningJobs == 1 })
	go slow()
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
		{"/count?pattern=house", 200}, // single resident graph: name optional
	}
	for _, tc := range cases {
		if code := getJSON(t, base+tc.url, nil); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.url, code, tc.want)
		}
	}
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
		graphName: "ba", patternSpec: "triangle", useIEP: true, backendName: "cluster",
	})
	if err != nil {
		t.Fatalf("cluster query after cancel: %v", err)
	}
	res, err := core.Plan(pattern.Triangle(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Best.CountIEP(g, core.RunOptions{}); qr.Count != want {
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
	g := baFixture(2000, 5, 17)
	addrs, kill := killableWorkers(t, g, 3)
	s := newTestServer(t, g, Options{ClusterAddrs: addrs, MaxConcurrent: 1, ClusterJobRetries: 2})
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
	want := res.Best.CountIEP(g, core.RunOptions{})
	count := func() (int64, error) {
		qr, err := s.runCount(context.Background(), queryRequest{
			graphName: "ba", patternSpec: "house", useIEP: true, backendName: "cluster",
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

// TestPlanCacheLRUEviction drives the byte budget directly: distinct keys
// beyond the budget evict the least recently used, and an evicted key plans
// again on return.
func TestPlanCacheLRUEviction(t *testing.T) {
	g := graph.BarabasiAlbert(200, 4, 2)
	build := func(p *pattern.Pattern) func() (*core.Config, time.Duration, error) {
		return func() (*core.Config, time.Duration, error) {
			res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
			if err != nil {
				return nil, 0, err
			}
			return res.Best, res.PrepTime, nil
		}
	}
	key := func(name string) planKey { return planKey{graphFP: "g", patternCK: name} }
	// Budget fits ~two house-sized entries (1024 + 64·25 + restrictions).
	c := newPlanCache(6000)
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.Rectangle(), pattern.House(), pattern.Pentagon()}
	for _, p := range pats {
		if _, _, _, err := c.get(key(p.Name()), build(p)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("cache over budget: %+v", st)
	}
	// The oldest key was evicted: asking again must re-plan (a miss).
	before := c.PlanningRuns()
	if _, _, hit, err := c.get(key("Triangle"), build(pattern.Triangle())); err != nil || hit {
		t.Fatalf("evicted key returned hit=%v err=%v", hit, err)
	}
	if c.PlanningRuns() != before+1 {
		t.Fatal("evicted key did not re-plan")
	}
	// The most recent key is still resident: a hit, no planning.
	before = c.PlanningRuns()
	if _, _, hit, err := c.get(key("Pentagon"), build(pattern.Pentagon())); err != nil || !hit {
		t.Fatalf("resident key returned hit=%v err=%v", hit, err)
	}
	if c.PlanningRuns() != before {
		t.Fatal("resident key re-planned")
	}
}

// TestPlanCacheBuildErrorNotCached: a failed build must not poison the key.
func TestPlanCacheBuildErrorNotCached(t *testing.T) {
	c := newPlanCache(1 << 20)
	boom := fmt.Errorf("boom")
	if _, _, _, err := c.get(planKey{patternCK: "x"}, func() (*core.Config, time.Duration, error) {
		return nil, 0, boom
	}); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	g := graph.BarabasiAlbert(100, 3, 1)
	res, err := core.Plan(pattern.Triangle(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, hit, err := c.get(planKey{patternCK: "x"}, func() (*core.Config, time.Duration, error) {
		return res.Best, 0, nil
	})
	if err != nil || hit || cfg == nil {
		t.Fatalf("retry after failed build: cfg=%v hit=%v err=%v", cfg, hit, err)
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
	cfg, _, hit, err := s.plan(rg, pattern.Rectangle())
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v, want a miss", hit, err)
	}
	if got, wantSet := cfg.Restrictions.String(), want.Restrictions.String(); got != wantSet {
		t.Errorf("cached %s, want %s", got, wantSet)
	}
}

// TestPlanCachePanicSafe: a panicking build must not leave the entry
// in-flight (waiters would block forever holding admission slots); the key
// must be retryable afterwards.
func TestPlanCachePanicSafe(t *testing.T) {
	c := newPlanCache(1 << 20)
	key := planKey{patternCK: "panicky"}
	func() {
		defer func() { recover() }()
		c.get(key, func() (*core.Config, time.Duration, error) { panic("planner bug") })
	}()
	g := graph.BarabasiAlbert(100, 3, 1)
	res, err := core.Plan(pattern.Triangle(), g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.get(key, func() (*core.Config, time.Duration, error) {
			return res.Best, 0, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retry after panic: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get blocked after a panicking build — entry left in-flight")
	}
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
