package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// get fetches a URL and returns the response with its body read out, for
// tests that assert on headers as well as payloads.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, body
}

// TestServiceProfilePerTier: ?profile=1 must return per-level
// predicted-vs-actual stats on both executors, leave the count bit-identical,
// survive a plan-cache hit, and stay absent without the flag.
func TestServiceProfilePerTier(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	// The engine counts k4 on the clique kernel and the house on the
	// interpreter, so the two patterns profile both executors.
	for _, tc := range []struct {
		pattern, label string
		levels         int
	}{
		{"k4", "generated", 4},
		{"house", "interpreted", 5},
	} {
		var ref queryResult
		if code := getJSON(t, base+"/count?graph=ba&pattern="+tc.pattern, &ref); code != 200 {
			t.Fatalf("%s reference count: status %d", tc.pattern, code)
		}
		if ref.Profile != nil {
			t.Fatalf("%s: profile payload present without ?profile=1", tc.pattern)
		}
		url := base + "/count?graph=ba&pattern=" + tc.pattern + "&profile=1"
		var qr queryResult
		if code := getJSON(t, url, &qr); code != 200 {
			t.Fatalf("%s: status %d", url, code)
		}
		if qr.Count != ref.Count {
			t.Errorf("%s profiled count %d, want %d", tc.pattern, qr.Count, ref.Count)
		}
		p := qr.Profile
		if p == nil {
			t.Fatalf("%s: no profile payload", tc.pattern)
		}
		if p.Tier != tc.label || p.Tier != qr.Tier {
			t.Errorf("%s: profile labels %q, result %q, want %q", tc.pattern, p.Tier, qr.Tier, tc.label)
		}
		if len(p.Levels) != tc.levels {
			t.Fatalf("%s: %d profiled levels, want %d", tc.pattern, len(p.Levels), tc.levels)
		}
		if p.Levels[0].Scans == 0 {
			t.Errorf("%s: no level-0 scans recorded", tc.pattern)
		}
		// BA(300,4) has plenty of edges without a common neighbour: every
		// executor must report the prefixes it abandoned on an empty
		// intersection (for the clique kernel, an all-zero row of the root's
		// matrix).
		var cuts uint64
		for _, l := range p.Levels[1:] {
			cuts += l.Cuts
		}
		if cuts == 0 {
			t.Errorf("%s: profile reports no empty-set cuts", tc.pattern)
		}
		if p.Drift == nil {
			t.Fatalf("%s: no drift report", tc.pattern)
		}
		if len(p.Drift.Levels) != tc.levels || p.Drift.PredictedCost <= 0 {
			t.Errorf("%s: drift = %d levels, cost %v", tc.pattern, len(p.Drift.Levels), p.Drift.PredictedCost)
		}
		var sawActual bool
		for _, ld := range p.Drift.Levels {
			if !ld.CoveredByIEP && ld.ActualIntersections+ld.ActualCandidates > 0 {
				sawActual = true
			}
		}
		if !sawActual {
			t.Errorf("%s: drift report carries no actual counters", tc.pattern)
		}
	}

	// The repeat is a plan-cache hit and must still profile.
	var warm queryResult
	if code := getJSON(t, base+"/count?graph=ba&pattern=k4&profile=1", &warm); code != 200 {
		t.Fatal("warm profiled count failed")
	}
	if warm.Cache != "hit" || warm.Profile == nil || len(warm.Profile.Levels) != 4 {
		t.Fatalf("warm profiled query = cache %q, profile %+v", warm.Cache, warm.Profile)
	}
}

// TestServiceProfileOnCluster: the wire protocol reduces counts, not
// counters, so a profiled cluster query degrades to predictions-only with an
// explanatory note instead of failing or silently returning zeros as actuals.
// The pool's master-side histograms reach the JSON metrics snapshot.
func TestServiceProfileOnCluster(t *testing.T) {
	g := baFixture(300, 4, 7)
	addrs := startWorkers(t, g, 2)
	s := newTestServer(t, g, Options{ClusterAddrs: addrs, MaxConcurrent: 1})

	qr, err := s.runCount(context.Background(), queryRequest{
		graphName:   "ba",
		patternSpec: "house",
		iep:         true,
		backendName: "cluster",
		profile:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := qr.Profile
	if p == nil {
		t.Fatal("cluster profiled query returned no profile payload")
	}
	if len(p.Levels) != 0 {
		t.Errorf("cluster profile carries %d levels of actuals; the wire reduces counts only", len(p.Levels))
	}
	if p.Note == "" {
		t.Error("cluster profile carries no explanatory note")
	}
	if p.Drift == nil || p.Drift.PredictedCost <= 0 {
		t.Errorf("cluster profile should still carry predictions, got %+v", p.Drift)
	}

	body, err := json.Marshal(s.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	m := flattenJSON(t, body)
	if n, _ := m["cluster_task_gap_seconds.count"].(float64); n <= 0 {
		t.Errorf("cluster_task_gap_seconds.count = %v, want > 0 after a cluster query", m["cluster_task_gap_seconds.count"])
	}
	if _, ok := m["cluster_redeal_seconds.count"]; !ok {
		t.Error("metrics snapshot is missing cluster_redeal_seconds")
	}
	if strings.Contains(string(body), "steal") {
		t.Error("metrics snapshot still carries a steal-relay field; nodes no longer steal")
	}
}

// TestServiceExplain: GET /explain reports the plan — schedule, tier, cost
// predictions — without executing anything, and its repeat rides the plan
// cache.
func TestServiceExplain(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	var cold explainResult
	if code := getJSON(t, base+"/explain?graph=ba&pattern=house", &cold); code != 200 {
		t.Fatalf("explain: status %d", code)
	}
	if cold.Graph != "ba" || cold.Schedule == "" || cold.Tier == "" || cold.Cache != "miss" {
		t.Fatalf("explain = %+v", cold)
	}
	if cold.Predicted == nil || len(cold.Predicted.Levels) != 5 || cold.PredictedCost <= 0 {
		t.Fatalf("explain predictions = %+v", cold.Predicted)
	}
	for _, ld := range cold.Predicted.Levels {
		if ld.ActualIntersections != 0 || ld.Valid {
			t.Errorf("explain level %d carries actuals (%+v); nothing ran", ld.Level, ld)
		}
	}

	var warm explainResult
	if code := getJSON(t, base+"/explain?graph=ba&pattern=house", &warm); code != 200 {
		t.Fatal("warm explain failed")
	}
	if warm.Cache != "hit" || warm.Schedule != cold.Schedule {
		t.Fatalf("warm explain = cache %q schedule %q, cold schedule %q", warm.Cache, warm.Schedule, cold.Schedule)
	}

	if code := getJSON(t, base+"/explain?graph=ba&pattern=nonsense", nil); code != 400 {
		t.Fatalf("bad pattern explain: status %d, want 400", code)
	}
	if code := getJSON(t, base+"/explain?graph=missing&pattern=house", nil); code != 404 {
		t.Fatalf("missing graph explain: status %d, want 404", code)
	}
}

// TestServiceMetricsJSON: /metrics is one JSON snapshot, never cacheable,
// whose counters belong to the Server: three count queries (one profiled)
// read back exactly, every field name stays put, a format= parameter is
// ignored like any unknown one, and a second Server in the same process
// starts from zero.
func TestServiceMetricsJSON(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	for _, q := range []string{"pattern=p3&profile=1", "pattern=p3", "pattern=triangle"} {
		if code := getJSON(t, base+"/count?graph=ba&"+q, nil); code != 200 {
			t.Fatalf("count %s: status %d", q, code)
		}
	}

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != 200 || resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatalf("GET /metrics: status %d, Cache-Control %q", resp.StatusCode, resp.Header.Get("Cache-Control"))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics Content-Type = %q, want JSON", ct)
	}
	m := flattenJSON(t, body)
	for path, want := range map[string]float64{
		"jobs.count_queries":  3,
		"jobs.profiled_runs":  1,
		"query_seconds.count": 3,
		"jobs.done":           3,
	} {
		if got, ok := m[path]; !ok || got != want {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	}
	for _, path := range []string{
		"uptime_seconds", "graphs", "queue_depth", "running_jobs", "busy_workers", "worker_cap",
		"jobs.created", "jobs.failed", "jobs.canceled", "jobs.rejected",
		"cache.entries", "cache.bytes", "cache.budget_bytes", "cache.hits", "cache.misses",
		"cache.evictions", "cache.planning_runs", "cache_hit_rate",
		"workers_configured", "workers_alive", "rejoins_total", "tasks_redealt_total", "job_retries_total",
		"query_seconds.sumNS",
	} {
		if _, ok := m[path]; !ok {
			t.Errorf("/metrics is missing %s", path)
		}
	}
	for _, path := range []string{"cluster_task_gap_seconds.count", "cluster_redeal_seconds.count"} {
		if _, ok := m[path]; ok {
			t.Errorf("/metrics carries %s without a cluster configured", path)
		}
	}

	// format= is ignored like any unknown parameter: every value gets the
	// same JSON.
	for _, f := range []string{"text", "xml"} {
		resp, body = get(t, base+"/metrics?format="+f)
		if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("/metrics?format=%s: status %d, Content-Type %q", f, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		again := flattenJSON(t, body)
		if len(again) != len(m) {
			t.Errorf("format=%s changed the shape: %d fields, want %d", f, len(again), len(m))
		}
		for path := range m {
			if _, ok := again[path]; !ok {
				t.Errorf("format=%s dropped %s", f, path)
			}
		}
	}

	fresh := newTestServer(t, g, Options{}).MetricsSnapshot()
	if fresh.Jobs.CountQueries != 0 || fresh.Jobs.ProfiledRuns != 0 || fresh.QuerySeconds.Count != 0 {
		t.Errorf("a second Server shares counters: jobs %+v, query_seconds.count %d", fresh.Jobs, fresh.QuerySeconds.Count)
	}
}

// flattenJSON decodes a JSON object into dotted paths to its leaves (arrays
// count as leaves), so tests can name fields the way clients read them.
func flattenJSON(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var root map[string]any
	if err := json.Unmarshal(body, &root); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	out := map[string]any{}
	var walk func(prefix string, v map[string]any)
	walk = func(prefix string, v map[string]any) {
		for k, x := range v {
			if sub, ok := x.(map[string]any); ok {
				walk(prefix+k+".", sub)
			} else {
				out[prefix+k] = x
			}
		}
	}
	walk("", root)
	return out
}

// TestServicePprofGate: the pprof surface exists only when the operator
// turned it on.
func TestServicePprofGate(t *testing.T) {
	g := baFixture(100, 3, 1)
	closed := startHTTP(t, newTestServer(t, g, Options{}))
	if resp, _ := get(t, closed+"/debug/pprof/"); resp.StatusCode != 404 {
		t.Fatalf("pprof without the flag: status %d, want 404", resp.StatusCode)
	}
	open := startHTTP(t, newTestServer(t, g, Options{EnablePprof: true}))
	if resp, _ := get(t, open+"/debug/pprof/"); resp.StatusCode != 200 {
		t.Fatalf("pprof with the flag: status %d, want 200", resp.StatusCode)
	}
}
