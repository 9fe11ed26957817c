package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphpi"
	"graphpi/internal/telemetry"
)

// engineWL is the shape of the three engine workloads: one resident graph,
// a short list of patterns, each counted with CountIEP (or enumerated) at P
// workers through the public facade.
type engineWL struct {
	spec      graphSpec
	queries   []query
	enumerate bool

	el    edgeList
	g     *graphpi.Graph
	pats  []*graphpi.Pattern
	plans []*graphpi.Plan // warm, P workers
	want  []int64
	sums  []uint64 // enumerate: expected checksum per query
}

func (w *engineWL) setup(r *run) error {
	el, err := r.makeEdges(w.spec)
	if err != nil {
		return err
	}
	g, err := el.facade()
	if err != nil {
		return err
	}
	w.el, w.g = el, g
	return nil
}

func (w *engineWL) close() { w.g, w.plans = nil, nil }

func (w *engineWL) key(r *run, q query) string { return r.workload + "/" + q.Name }

// newPlans plans every query with the given options.
func (w *engineWL) newPlans(opts ...graphpi.Option) ([]*graphpi.Plan, error) {
	plans := make([]*graphpi.Plan, len(w.pats))
	for i, p := range w.pats {
		pl, err := graphpi.NewPlan(w.g, p, opts...)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", w.queries[i].Name, err)
		}
		plans[i] = pl
	}
	return plans, nil
}

func (w *engineWL) warm(r *run) error {
	w.pats = nil
	for _, q := range w.queries {
		p, err := q.facade()
		if err != nil {
			return err
		}
		w.pats = append(w.pats, p)
	}
	var err error
	if w.plans, err = w.newPlans(graphpi.WithWorkers(r.procs)); err != nil {
		return err
	}
	// Expected answers come from goldens, or from an arm that shares neither
	// tier nor worker count with the timed one.
	ref, err := w.newPlans(graphpi.WithWorkers(1), graphpi.WithTier(graphpi.TierInterpreted))
	if err != nil {
		return err
	}
	w.want = make([]int64, len(w.queries))
	w.sums = make([]uint64, len(w.queries))
	for i, q := range w.queries {
		refEnum := sync.OnceValues(func() (int64, uint64) { return w.enumerateOnce(ref[i]) })
		w.want[i] = r.wantCount(w.key(r, q), w.el, q, func() int64 {
			if w.enumerate {
				n, _ := refEnum()
				return n
			}
			return ref[i].CountIEP()
		})
		if w.enumerate && r.oracle == nil {
			w.sums[i] = r.wantChecksum(w.key(r, q), func() uint64 {
				_, sum := refEnum()
				return sum
			})
		}
	}
	w.pass(r)
	if r.graphFile != "" {
		return w.printReference(r)
	}
	return nil
}

// wantChecksum is wantCount for enumeration checksums (no oracle: brute force
// yields counts only, and the test then skips the checksum).
func (r *run) wantChecksum(key string, ref func() uint64) uint64 {
	if r.goldenApplies() {
		if v, ok := r.gold.Checksums[key]; ok {
			return v
		}
		r.check(false, "no golden checksum for %s", key)
	}
	v := ref()
	if r.writeGolden {
		r.gold.Checksums[key] = v
	}
	return v
}

func (w *engineWL) pass(r *run) passResult { return w.timedPass(r, w.plans) }

// timedPass runs the plans once, untraced, verifying every answer.
func (w *engineWL) timedPass(r *run, plans []*graphpi.Plan) passResult {
	var res passResult
	t0 := time.Now()
	for i, pl := range plans {
		q0 := time.Now()
		w.runQuery(r, i, pl)
		res.latenciesMS = append(res.latenciesMS, ms(time.Since(q0)))
	}
	res.seconds = time.Since(t0).Seconds()
	return res
}

// runQuery executes one planned query and verifies its answer.
func (w *engineWL) runQuery(r *run, i int, pl *graphpi.Plan) {
	name := w.queries[i].Name
	if !w.enumerate {
		got := pl.CountIEP()
		r.check(got == w.want[i], "%s: count %d, want %d", name, got, w.want[i])
		return
	}
	got, sum := w.enumerateOnce(pl)
	r.check(got == w.want[i], "%s: enumerated %d, want %d", name, got, w.want[i])
	if w.sums[i] != 0 {
		r.check(sum == w.sums[i], "%s: checksum %#x, want %#x", name, sum, w.sums[i])
	}
}

// enumerateOnce visits every embedding and folds it into a checksum over the
// generated graph's vertex ids: invariant under the -seed relabelling, under
// the order workers report embeddings in, and under which automorphic image
// of a subgraph the chosen restriction set keeps. Striped so P workers do not
// contend on one word.
func (w *engineWL) enumerateOnce(pl *graphpi.Plan) (int64, uint64) {
	var stripes [64]struct {
		v atomic.Uint64
		_ [56]byte
	}
	base := w.el.base
	n := pl.Enumerate(func(emb []uint32) bool {
		var s uint64
		for _, v := range emb {
			s += mix64(uint64(base[v]))
		}
		h := mix64(s)
		stripes[h&63].v.Add(h)
		return true
	})
	var sum uint64
	for i := range stripes {
		sum += stripes[i].v.Load()
	}
	return n, sum
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// printReference prints GraphPi's baseline_test.cpp lines for its p1..p5 on
// the loaded graph, so a run compares directly with the reference C++ on the
// same file.
func (w *engineWL) printReference(r *run) error {
	for _, q := range referencePatterns {
		p, err := q.facade()
		if err != nil {
			return err
		}
		pl, err := graphpi.NewPlan(w.g, p, graphpi.WithWorkers(r.procs))
		if err != nil {
			return err
		}
		t0 := time.Now()
		ans := pl.CountIEP()
		fmt.Printf("# %s\nans %d\ntime %.6f\n", q.Name, ans, time.Since(t0).Seconds())
	}
	return nil
}

// tracedPass runs the query list once at the given worker count with the
// facade's tracer and run statistics on, recording a root "query" span per
// query with children plan, compile and run. It returns the pass time, the
// per-query statistics and the plans (for Drift).
func (w *engineWL) tracedPass(r *run, workers int, extra ...graphpi.Option) (float64, []*graphpi.RunStats, []*graphpi.Plan, error) {
	stats := make([]*graphpi.RunStats, len(w.queries))
	plans := make([]*graphpi.Plan, len(w.queries))
	t0 := time.Now()
	for i, p := range w.pats {
		qid := r.rec.newQuery()
		root, end := r.rec.begin("query", 0, qid)
		var events bytes.Buffer
		stats[i] = graphpi.NewRunStats(p.N())
		opts := append([]graphpi.Option{
			graphpi.WithWorkers(workers),
			graphpi.WithRunStats(stats[i]),
			graphpi.WithTracer(graphpi.NewTracer(&events)),
		}, extra...)
		_, endPlan := r.rec.begin("plan", root, qid)
		pl, err := graphpi.NewPlan(w.g, p, opts...)
		endPlan()
		if err != nil {
			end()
			return 0, nil, nil, err
		}
		plans[i] = pl
		events.Reset()
		run0 := time.Now()
		w.runQuery(r, i, pl)
		runDur := time.Since(run0)
		end()
		// Counting runs report their own compile and run spans through the
		// tracer; enumeration reports none, so the call itself is the run.
		if n := addTracerSpans(r.rec, &events, root, qid); n == 0 {
			r.rec.add("run", root, qid, run0, runDur)
		}
	}
	return time.Since(t0).Seconds(), stats, plans, nil
}

// addTracerSpans restates the facade tracer's NDJSON events as child spans.
func addTracerSpans(rec *recorder, events *bytes.Buffer, parent, query int) int {
	n := 0
	dec := json.NewDecoder(events)
	for {
		var ev telemetry.SpanEvent
		if err := dec.Decode(&ev); err != nil {
			return n
		}
		start, err := time.Parse(time.RFC3339Nano, ev.TS)
		if err != nil {
			continue
		}
		rec.add(ev.Span, parent, query, start, time.Duration(ev.DurMS*float64(time.Millisecond)))
		n++
	}
}

// resolvesTo reports whether the plan's counting run lands on tier t when
// asked for it; a tier the query cannot run on is not reported at all instead
// of silently timing the fallback.
func (w *engineWL) resolvesTo(pl *graphpi.Plan, t graphpi.Tier) bool {
	if w.enumerate {
		return t == graphpi.TierInterpreted // enumeration always interprets
	}
	return pl.ExecutionTier(true) == t
}

func (w *engineWL) layers(r *run) error {
	probe, err := r.commonProbes(w.spec, w.el, w.queries)
	if err != nil {
		return err
	}

	// P workers, untraced: the reference for parallel efficiency.
	var solveP []float64
	for i := 0; i < 2; i++ {
		solveP = append(solveP, w.pass(r).seconds)
	}

	// One worker, untraced and traced passes interleaved.
	auto1, err := w.newPlans(graphpi.WithWorkers(1))
	if err != nil {
		return err
	}
	for _, pl := range auto1 {
		pl.ExecutionTier(true) // compile now, outside the timed pass
	}
	var plain, first, traced []float64
	var stats []*graphpi.RunStats
	var tracedPlans []*graphpi.Plan
	for i := 0; i < 2; i++ {
		p := w.timedPass(r, auto1)
		plain, first = append(plain, p.seconds), append(first, p.latenciesMS[0]/1e3)
		t, st, pls, err := w.tracedPass(r, 1)
		if err != nil {
			return err
		}
		traced = append(traced, t)
		stats, tracedPlans = st, pls
	}
	solve1 := median(plain)
	r.put("taskpool.solve_1p_s", plain)
	r.put1("taskpool.parallel_eff", solve1/(float64(r.procs)*median(solveP)))
	r.put1("telemetry.stats_overhead_ratio", median(traced)/solve1)
	r.put1("trace.coverage", r.rec.coverage("query"))
	w.putCounters(r, probe, stats, tracedPlans, solve1)

	// Auxiliary-graph pruning exists on the runtime-compiled tier only: the
	// first query with aux off against the cost-gated automatic mode, one
	// worker. Both arms are measured the same way: a fresh plan each, one
	// untimed run, then timed runs in turn.
	var auxOff []float64
	if !w.enumerate {
		st := graphpi.NewRunStats(w.pats[0].N())
		var arms [3]*graphpi.Plan // aux off, aux on, aux on with run statistics
		can := true
		for i, opts := range [][]graphpi.Option{
			{graphpi.WithAux(graphpi.AuxOff)},
			{graphpi.WithAux(graphpi.AuxOn)},
			{graphpi.WithAux(graphpi.AuxOn), graphpi.WithRunStats(st)},
		} {
			pl, ok, err := w.forcedPlan(graphpi.TierCompiled, opts...)
			if err != nil {
				return err
			}
			arms[i], can = pl, can && ok
		}
		if can {
			off, on := arms[0], arms[1]
			w.runQuery(r, 0, off)
			w.runQuery(r, 0, on)
			var auxOn []float64
			for i := 0; i < 3; i++ {
				auxOff = append(auxOff, w.timeFirst(r, off))
				auxOn = append(auxOn, w.timeFirst(r, on))
			}
			r.put1("auxgraph.on_off_ratio", median(auxOff)/median(auxOn))
			w.runQuery(r, 0, arms[2])
			r.put1("auxgraph.rows", float64(st.Aux.Rows))
			r.put1("auxgraph.hits", float64(st.Aux.Hits))
			r.put1("auxgraph.bytes", float64(st.Aux.Bytes))
		}
	}

	// The first query of the list on each tier it can run on, one worker.
	// Only the first: the interpreter needs 8x the generated tier's time on
	// K5, which no run budget holds.
	for _, t := range []struct {
		tier   graphpi.Tier
		metric string
	}{
		{graphpi.TierInterpreted, "core.interp_s"},
		{graphpi.TierCompiled, "core.compiled_s"},
		{graphpi.TierGenerated, "core.generated_s"},
	} {
		switch {
		case w.resolvesTo(auto1[0], t.tier):
			r.put(t.metric, first) // the auto arm already ran on it
		case w.enumerate:
		case t.tier == graphpi.TierCompiled && auxOff != nil:
			r.put(t.metric, auxOff)
		default:
			pl, ok, err := w.forcedPlan(t.tier, graphpi.WithAux(graphpi.AuxOff))
			if err != nil {
				return err
			}
			if ok {
				r.put1(t.metric, w.timeFirst(r, pl))
			}
		}
	}
	return nil
}

// forcedPlan plans the first query at one worker for the given tier and
// compiles it; ok is false when the query cannot run on the tier.
func (w *engineWL) forcedPlan(tier graphpi.Tier, extra ...graphpi.Option) (pl *graphpi.Plan, ok bool, err error) {
	opts := append([]graphpi.Option{graphpi.WithWorkers(1), graphpi.WithTier(tier)}, extra...)
	pl, err = graphpi.NewPlan(w.g, w.pats[0], opts...)
	if err != nil {
		return nil, false, err
	}
	return pl, w.resolvesTo(pl, tier), nil
}

// timeFirst times one verified run of a plan of the first query.
func (w *engineWL) timeFirst(r *run, pl *graphpi.Plan) float64 {
	t0 := time.Now()
	w.runQuery(r, 0, pl)
	return time.Since(t0).Seconds()
}

// putCounters reports the exact counters of a one-worker traced pass, summed
// over queries and levels, and what is computed from them.
func (w *engineWL) putCounters(r *run, probe *probeResult, stats []*graphpi.RunStats, plans []*graphpi.Plan, solve1 float64) {
	var tot telemetry.LevelStats
	var hottest, sampled, actual, predicted float64
	for i, st := range stats {
		var wall []float64
		for _, l := range st.Levels {
			tot.Scans += l.Scans
			tot.Candidates += l.Candidates
			tot.Intersections += l.Intersections
			for k := range l.Kernels {
				tot.Kernels[k] += l.Kernels[k]
			}
			tot.Prunes += l.Prunes
			tot.DupSkips += l.DupSkips
			tot.IEPCounts += l.IEPCounts
			wall = append(wall, float64(l.WallNS))
		}
		// WallNS includes nested levels, so a level's own time is its reading
		// minus the next level's, and the largest reading stands for the
		// whole run (level 0 scans too rarely to be sampled every time).
		top, whole := 0.0, 0.0
		for d := range wall {
			self := wall[d]
			if d+1 < len(wall) {
				self -= wall[d+1]
			}
			top, whole = max(top, self), max(whole, wall[d])
		}
		hottest += top
		sampled += whole
		if rep, ok := plans[i].Drift(!w.enumerate, st); ok {
			actual += float64(rep.TotalActual)
			predicted += rep.TotalPredicted
		}
	}
	r.put1("core.scans", float64(tot.Scans))
	r.put1("core.candidates", float64(tot.Candidates))
	r.put1("core.intersections", float64(tot.Intersections))
	r.put1("core.kernel_merge", float64(tot.Kernels[telemetry.KernelMerge]))
	r.put1("core.kernel_gallop", float64(tot.Kernels[telemetry.KernelGallop]))
	r.put1("core.kernel_bitmap", float64(tot.Kernels[telemetry.KernelBitmap]))
	r.put1("core.kernel_aux", float64(tot.Kernels[telemetry.KernelAux]))
	r.put1("core.prunes", float64(tot.Prunes))
	r.put1("core.dup_skips", float64(tot.DupSkips))
	r.put1("iep.evals", float64(tot.IEPCounts))
	if sampled > 0 {
		r.put1("core.top_level_share", hottest/sampled)
	}
	if predicted > 0 {
		r.put1("core.drift_ratio", actual/predicted)
	}
	// Computed, not measured: calls of each kernel family times the probed
	// cost per element times the elements such a call reads — the mean
	// candidate set, plus a mean non-hub row for the list kernels.
	if tot.Scans > 0 {
		set := float64(tot.Candidates) / float64(tot.Scans)
		list := set + probe.meanListRow
		est := float64(tot.Kernels[telemetry.KernelMerge])*probe.nsPerElem[telemetry.KernelMerge]*list +
			float64(tot.Kernels[telemetry.KernelGallop])*probe.nsPerElem[telemetry.KernelGallop]*list +
			float64(tot.Kernels[telemetry.KernelAux])*probe.nsPerElem[telemetry.KernelAux]*list +
			float64(tot.Kernels[telemetry.KernelBitmap])*probe.nsPerElem[telemetry.KernelBitmap]*set
		r.put1("vertexset.est_share", est/(solve1*1e9))
	}
}
