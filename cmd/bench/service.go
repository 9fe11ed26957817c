package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"graphpi"
)

// Request mix of one service-mix pass (2400 requests, closed loop, P
// clients). The cold share replays a fixed set of 120 motifs — every
// 5-vertex motif and the first 99 6-vertex ones — in seeded order, so p99
// (which sits among the cold plans) does not depend on which motifs a seed
// happened to draw.
const (
	svcHot       = 1920 // 80%: /count of a hot pattern by name
	svcRelabel   = 240  // 10%: the same patterns as relabelled n:matrix specs
	svcCold      = 120  // 5%: /count on tiny of a motif not yet seen this pass
	svcEnumerate = 120  // 5%: /enumerate?limit=2000 of rectangle on hot
	svcLimit     = 2000
)

var hotQueries = []query{{"triangle", "triangle"}, {"rectangle", "rectangle"}, {"k4", "k4"}, referencePatterns[0]}

// svcRequest is one request of the seeded sequence.
type svcRequest struct {
	enumerate bool   // /enumerate, else /count
	url       string // path and query
	want      int64
	name      string
}

// svcRecord is what the client learned from one /count response.
type svcRecord struct {
	start     time.Time
	latency   time.Duration
	enumerate bool
	hit       bool
	planSec   float64
	execSec   float64
	bodyBytes int
}

type serviceWL struct {
	hotSpec, tinySpec graphSpec
	hotEl, tinyEl     edgeList
	hot, tiny         *graphpi.Graph
	cold              []query
	prefix, reqs      []svcRequest // one pass: prefix in order, then reqs by P clients
	order             *rand.Rand   // reshuffles reqs before every pass
	srv               *graphpi.QueryServer
	client            *http.Client
}

func newServiceWL() *serviceWL {
	cold := motifQueries(5)
	six := motifQueries(6)
	cold = append(cold, six[:svcCold-len(cold)]...)
	return &serviceWL{hotSpec: baHot, tinySpec: baTiny, cold: cold}
}

func (w *serviceWL) setup(r *run) error {
	var err error
	if w.hotEl, err = r.makeEdges(w.hotSpec); err != nil {
		return err
	}
	if w.tinyEl, err = r.makeEdges(w.tinySpec); err != nil {
		return err
	}
	if w.hot, err = w.hotEl.facade(); err != nil {
		return err
	}
	if w.tiny, err = w.tinyEl.facade(); err != nil {
		return err
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.procs}}
	if err := w.restart(r); err != nil {
		return err
	}
	resp, err := w.client.Get("http://" + w.srv.Addr() + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// restart replaces the server with a fresh one: empty plan cache, empty job
// registry.
func (w *serviceWL) restart(r *run) error {
	w.stop()
	srv, err := graphpi.ServeQueries("127.0.0.1:0", graphpi.QueryServiceOptions{
		Graphs:            map[string]*graphpi.Graph{"hot": w.hot, "tiny": w.tiny},
		MaxConcurrentJobs: r.procs,
	})
	if err != nil {
		return err
	}
	w.srv = srv
	return nil
}

func (w *serviceWL) stop() {
	if w.srv != nil {
		w.srv.Close()
		w.srv.Wait()
		w.srv = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

func (w *serviceWL) close() { w.stop() }

// localCount is the reference arm for a /count answer: the same graph,
// counted in-process with one worker on the interpreter.
func localCount(g *graphpi.Graph, q query) func() int64 {
	return func() int64 {
		p, err := q.facade()
		if err != nil {
			return -1
		}
		n, err := graphpi.Count(g, p, graphpi.WithWorkers(1), graphpi.WithTier(graphpi.TierInterpreted))
		if err != nil {
			return -1
		}
		return n
	}
}

func (w *serviceWL) warm(r *run) error {
	rng := rand.New(rand.NewPCG(r.seed, 0x5e271ce))
	count := func(graphName, spec string) string {
		return "/count?" + url.Values{"graph": {graphName}, "pattern": {spec}}.Encode()
	}
	hotWant := make([]int64, len(hotQueries))
	for i, q := range hotQueries {
		hotWant[i] = r.wantCount("service-mix/hot/"+q.Name, w.hotEl, q, localCount(w.hot, q))
	}
	// The plan cache keys on the canonical form, so whichever labelling of a
	// hot pattern arrives first decides the cached plan for all of them, and
	// the planner's choice depends on the labelling (a relabelled rectangle
	// can get a 4x faster schedule). Each pass therefore opens with the named
	// forms, issued one by one; the seeded sequence follows.
	w.prefix = w.prefix[:0]
	for k, q := range hotQueries {
		w.prefix = append(w.prefix, svcRequest{false, count("hot", q.Spec), hotWant[k], q.Name})
	}
	w.reqs = w.reqs[:0]
	for i := len(w.prefix); i < svcHot; i++ {
		k := rng.IntN(len(hotQueries))
		w.reqs = append(w.reqs, svcRequest{false, count("hot", hotQueries[k].Spec), hotWant[k], hotQueries[k].Name})
	}
	for i := 0; i < svcRelabel; i++ {
		k := rng.IntN(len(hotQueries))
		p, err := hotQueries[k].internal()
		if err != nil {
			return err
		}
		spec := fmt.Sprintf("%d:%s", p.N(), p.Relabel(rng.Perm(p.N())).AdjacencyString())
		w.reqs = append(w.reqs, svcRequest{false, count("hot", spec), hotWant[k], hotQueries[k].Name + "-relabelled"})
	}
	for _, q := range w.cold {
		want := r.wantCount("service-mix/tiny/"+q.Name, w.tinyEl, q, localCount(w.tiny, q))
		w.reqs = append(w.reqs, svcRequest{false, count("tiny", q.Spec), want, q.Name})
	}
	// /enumerate streams min(limit, rectangles) embeddings; hotQueries[1] is
	// the rectangle.
	enum := "/enumerate?" + url.Values{"graph": {"hot"}, "pattern": {"rectangle"}, "limit": {fmt.Sprint(svcLimit)}}.Encode()
	for i := 0; i < svcEnumerate; i++ {
		w.reqs = append(w.reqs, svcRequest{true, enum, min(svcLimit, hotWant[1]), "enumerate-rectangle"})
	}
	w.order = rng
	w.pass(r)
	return nil
}

func (w *serviceWL) pass(r *run) passResult {
	res, _ := w.replay(r, "")
	return res
}

// replay restarts the server and reshuffles the requests (both outside the
// timed window), then has P closed-loop clients work through the sequence:
// each issues its next request when the previous one has returned. Every pass
// gets its own seeded order, because which cold plans happen to run side by
// side decides a pass's peak heap (27 or 38 MB) and tail latency; with one
// order per run those would be properties of the seed. extra is appended to
// every /count URL.
func (w *serviceWL) replay(r *run, extra string) (passResult, []svcRecord) {
	if err := w.restart(r); err != nil {
		r.check(false, "restart: %v", err)
		return passResult{seconds: 1}, nil
	}
	w.order.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	base := "http://" + w.srv.Addr()
	records := make([]svcRecord, len(w.prefix)+len(w.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, req := range w.prefix {
		records[i] = w.issue(r, req, base+req.url+extra)
	}
	for c := 0; c < r.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.reqs) {
					return
				}
				req := w.reqs[i]
				u := base + req.url
				if !req.enumerate {
					u += extra
				}
				records[len(w.prefix)+i] = w.issue(r, req, u)
			}
		}()
	}
	wg.Wait()
	res := passResult{seconds: time.Since(t0).Seconds()}
	for _, rec := range records {
		res.latenciesMS = append(res.latenciesMS, ms(rec.latency))
	}
	return res, records
}

// issue sends one request and verifies the answer: status 200 (a 429 or any
// other status is a failure), the expected count, or limit embeddings and a
// trailer that says truncated when the limit cut the stream.
func (w *serviceWL) issue(r *run, req svcRequest, u string) svcRecord {
	rec := svcRecord{start: time.Now(), enumerate: req.enumerate}
	resp, err := w.client.Get(u)
	if err != nil {
		rec.latency = time.Since(rec.start)
		r.check(false, "%s: %v", req.name, err)
		return rec
	}
	defer resp.Body.Close()
	var body struct {
		Count     int64   `json:"count"`
		Cache     string  `json:"cache"`
		PlanSec   float64 `json:"plan_seconds"`
		ExecSec   float64 `json:"exec_seconds"`
		Truncated bool    `json:"truncated"`
	}
	if req.enumerate {
		lines := int64(0)
		sc := bufio.NewScanner(resp.Body)
		var last []byte
		for sc.Scan() {
			lines++
			rec.bodyBytes += len(sc.Bytes()) + 1
			last = append(last[:0], sc.Bytes()...)
		}
		rec.latency = time.Since(rec.start)
		err := json.Unmarshal(last, &body)
		r.check(resp.StatusCode == http.StatusOK && err == nil && lines-1 == req.want && (body.Truncated || req.want < svcLimit),
			"%s: status %d, %d embeddings (want %d), trailer %s", req.name, resp.StatusCode, lines-1, req.want, last)
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	rec.latency = time.Since(rec.start)
	if err == nil {
		err = json.Unmarshal(data, &body)
	}
	r.check(resp.StatusCode == http.StatusOK && err == nil && body.Count == req.want,
		"%s: status %d, count %d (want %d), err %v", req.name, resp.StatusCode, body.Count, req.want, err)
	rec.hit, rec.planSec, rec.execSec, rec.bodyBytes = body.Cache == "hit", body.PlanSec, body.ExecSec, len(data)
	return rec
}

func (w *serviceWL) layers(r *run) error {
	if _, err := r.commonProbes(w.hotSpec, w.hotEl, append(append([]query(nil), hotQueries...), w.cold...)); err != nil {
		return err
	}
	// Plain and ?profile=1 passes interleaved: the plain ones give the
	// service's layer split, the ratio is what per-level stats cost a request.
	var plain, profiled []float64
	var records []svcRecord
	for i := 0; i < 2; i++ {
		res, recs := w.replay(r, "")
		plain, records = append(plain, res.seconds), recs
		res, _ = w.replay(r, "&profile=1")
		profiled = append(profiled, res.seconds)
	}
	r.put1("telemetry.stats_overhead_ratio", median(profiled)/median(plain))

	var overhead, planMiss, planHit, exec []float64
	var enumBytes, enumSec float64
	for _, rec := range records {
		if rec.enumerate {
			enumBytes += float64(rec.bodyBytes)
			enumSec += rec.latency.Seconds()
			continue
		}
		plan := time.Duration(rec.planSec * float64(time.Second))
		run := time.Duration(rec.execSec * float64(time.Second))
		over := rec.latency - plan - run
		if over < 0 {
			over = 0
		}
		// The root span is the client's latency; plan and exec restate the
		// server's own timings from the response. The root's self time is the
		// overhead (HTTP, admission, job registry, encoding), so it is a
		// remainder by definition and no trace.coverage is reported here.
		qid := r.rec.newQuery()
		root := r.rec.add("query", 0, qid, rec.start, rec.latency)
		r.rec.add("plan", root, qid, rec.start, plan)
		r.rec.add("exec", root, qid, rec.start.Add(plan), run)
		overhead = append(overhead, ms(over))
		exec = append(exec, ms(run))
		if rec.hit {
			planHit = append(planHit, rec.planSec*1e6)
		} else {
			planMiss = append(planMiss, rec.planSec*1e3)
		}
	}
	r.put("service.overhead_ms", overhead)
	r.put("service.exec_ms", exec)
	r.put("service.plan_ms_miss", planMiss)
	r.put("service.plan_us_hit", planHit)
	if enumSec > 0 {
		r.put1("service.enumerate_mb_per_s", enumBytes/1e6/enumSec)
	}

	// The last replay's server is still up: read its own counters.
	resp, err := w.client.Get("http://" + w.srv.Addr() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m struct {
		HitRate float64 `json:"cache_hit_rate"`
		Jobs    struct {
			Rejected int64 `json:"rejected"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	r.put1("service.cache_hit_ratio", m.HitRate)
	r.put1("service.rejected", float64(m.Jobs.Rejected))
	return nil
}
