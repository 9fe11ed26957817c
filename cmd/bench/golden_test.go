package main

import (
	"reflect"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
)

// bruteForce is the independent oracle: it shares no planner, schedule,
// restriction or kernel code with the engine.
func bruteForce(t *testing.T) func(el edgeList, q query) int64 {
	return func(el edgeList, q query) int64 {
		g, err := graph.FromEdges(el.n, el.edges)
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.internal()
		if err != nil {
			t.Fatal(err)
		}
		return baseline.BruteForceCount(g, p)
	}
}

// miniature returns every workload rebuilt on graphs small enough for brute
// force (the issue's 1/20 scale is not: BruteForceCount walks |V| candidates
// per level, minutes for 6-vertex patterns on 1500 vertices). Same code
// paths, same query lists, same request mix.
func miniature() map[string]workload {
	rmat := graphSpec{"rmat", 7, 1200}
	ba := graphSpec{"ba", 80, 4}
	svc := newServiceWL()
	svc.hotSpec, svc.tinySpec, svc.cold = graphSpec{"ba", 60, 3}, graphSpec{"ba", 40, 3}, motifQueries(4)
	return map[string]workload{
		"clique-rmat":      &engineWL{spec: rmat, queries: []query{{"k4", "k4"}, {"k5", "k5"}}},
		"cyclic-ba":        &engineWL{spec: ba, queries: []query{{"house", "house"}, {"cycle6tri", "cycle6tri"}, referencePatterns[3]}},
		"enumerate-ba":     &engineWL{spec: ba, enumerate: true, queries: []query{{"house", "house"}, {"rectangle", "rectangle"}}},
		"plan-cold":        &planWL{spec: ba, queries: append(planColdQueries()[:11], motifQueries(4)...)},
		"service-mix":      svc,
		"cluster-loopback": &clusterWL{spec: ba, queries: []query{{"house", "house"}, {"cycle6tri", "cycle6tri"}}},
	}
}

func testRun(t *testing.T, name string, trace bool) *run {
	r := &run{
		workload: name, seed: 7, procs: 2, trace: trace, root: repoRoot,
		refs: map[string]int64{}, oracle: bruteForce(t),
	}
	if trace {
		r.rec = newRecorder()
	}
	return r
}

// The goldens are the engine's own answers, so this test anchors the engine —
// through the benchmark's own set-up, warm pass and timed pass, P workers,
// default tier, service and cluster included — to brute force.
func TestGoldenAnchoredToBruteForce(t *testing.T) {
	if len(miniature()) != len(workloads) {
		t.Fatal("a workload has no miniature")
	}
	for name, w := range miniature() {
		t.Run(name, func(t *testing.T) {
			r := testRun(t, name, false)
			if err := w.setup(r); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.warm(r); err != nil {
				t.Fatal(err)
			}
			w.pass(r)
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d operations failed against brute force", r.failed, r.attempted)
			}
		})
	}
}

// The traced phase must run on every workload, report only declared metrics
// (putRow panics otherwise) and account for each query's time.
func TestTracedPhase(t *testing.T) {
	for name, w := range miniature() {
		t.Run(name, func(t *testing.T) {
			r := testRun(t, name, true)
			if err := w.setup(r); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.warm(r); err != nil {
				t.Fatal(err)
			}
			if err := w.layers(r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Errorf("%d of %d operations failed", r.failed, r.attempted)
			}
			reported := map[string]bool{}
			for _, w := range r.rows {
				reported[w.Metric] = true
			}
			want := []string{"graph.reorder_s", "vertexset.merge_ns_per_elem", "core.plan_ms", "surface.loc_nontest"}
			if name != "service-mix" { // its spans leave the overhead as the root's self time
				want = append(want, "trace.coverage")
			}
			for _, m := range want {
				if !reported[m] {
					t.Errorf("%s not reported", m)
				}
			}
		})
	}
}

// golden.json's motif lists must be what the pattern package enumerates (the
// 6-vertex census takes seconds, so -short checks 4 and 5 only).
func TestGoldenMotifs(t *testing.T) {
	for n := 4; n <= 6; n++ {
		if n == 6 && testing.Short() {
			continue
		}
		if got, want := loadGolden().Motifs[n], enumerateMotifs(n); !reflect.DeepEqual(got, want) {
			t.Errorf("golden motifs for n=%d differ from pattern.AllConnected: %d vs %d entries", n, len(got), len(want))
		}
	}
}

// The golden file must cover every query of every workload at full size.
func TestGoldenCoversEveryQuery(t *testing.T) {
	r := &run{gold: loadGolden()}
	if r.gold.GenSeed != genSeed {
		t.Errorf("golden gen_seed = %d, want %d", r.gold.GenSeed, genSeed)
	}
	var keys []string
	for _, wl := range []string{"clique-rmat", "cyclic-ba", "enumerate-ba", "cluster-loopback"} {
		w, err := newWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		var qs []query
		switch w := w.(type) {
		case *engineWL:
			qs = w.queries
		case *clusterWL:
			qs = w.queries
		}
		for _, q := range qs {
			keys = append(keys, wl+"/"+q.Name)
		}
	}
	svc := newServiceWL()
	for _, q := range hotQueries {
		keys = append(keys, "service-mix/hot/"+q.Name)
	}
	for _, q := range svc.cold {
		keys = append(keys, "service-mix/tiny/"+q.Name)
	}
	for _, k := range keys {
		if _, ok := r.gold.Counts[k]; !ok {
			t.Errorf("no golden count for %s", k)
		}
	}
	for _, k := range []string{"enumerate-ba/house", "enumerate-ba/rectangle"} {
		if r.gold.Checksums[k] == 0 {
			t.Errorf("no golden checksum for %s", k)
		}
	}
	for _, q := range planColdQueries() {
		if r.gold.Plans[q.Name] == "" {
			t.Errorf("no golden plan for %s", q.Name)
		}
	}
}
