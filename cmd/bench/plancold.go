package main

import (
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
)

// planWL plans a long pattern list from scratch (no plan cache) against the
// fixed statistics of one graph: what a cold /count pays, and the paper's
// Table III. Single-threaded, like the planner.
type planWL struct {
	spec    graphSpec
	queries []query

	el    edgeList
	stats graph.Stats
	pats  []*pattern.Pattern
	want  []string        // expected schedule | restriction set per pattern
	valid map[string]bool // plans whose restriction set passed restrict.Validate
}

func planColdQueries() []query {
	qs := []query{{"p1", "p1"}, {"p2", "p2"}, {"p3", "p3"}, {"p4", "p4"}, {"p5", "p5"}, {"p6", "p6"}}
	qs = append(qs, referencePatterns...)
	for n := 4; n <= 6; n++ {
		qs = append(qs, motifQueries(n)...)
	}
	return append(qs, query{"k7", "k7"})
}

func (w *planWL) setup(r *run) error {
	el, err := r.makeEdges(w.spec)
	if err != nil {
		return err
	}
	g, _, err := el.internal()
	if err != nil {
		return err
	}
	w.el, w.stats = el, g.Stats()
	return nil
}

func (w *planWL) close() {}

func (w *planWL) warm(r *run) error {
	w.pats = nil
	for _, q := range w.queries {
		p, err := q.internal()
		if err != nil {
			return err
		}
		w.pats = append(w.pats, p)
	}
	// The planner is deterministic in (pattern, stats) and stats do not
	// change under relabelling, so the chosen plan is a golden; elsewhere
	// the first pass pins it and later passes must repeat it.
	w.want = make([]string, len(w.queries))
	w.valid = map[string]bool{}
	if r.goldenApplies() {
		for i, q := range w.queries {
			w.want[i] = r.gold.Plans[q.Name]
			if w.want[i] == "" {
				r.check(false, "no golden plan for %s", q.Name)
			}
		}
	}
	w.pass(r)
	return nil
}

func (w *planWL) pass(r *run) passResult {
	var res passResult
	planned := make([]*core.PlanResult, len(w.pats))
	errs := make([]error, len(w.pats))
	t0 := time.Now()
	for i, p := range w.pats {
		q0 := time.Now()
		planned[i], errs[i] = core.Plan(p, w.stats, core.PlanOptions{})
		res.latenciesMS = append(res.latenciesMS, ms(time.Since(q0)))
	}
	res.seconds = time.Since(t0).Seconds()

	// Verification stays outside the timed region.
	for i, p := range w.pats {
		name := w.queries[i].Name
		if errs[i] != nil {
			r.check(false, "%s: %v", name, errs[i])
			continue
		}
		best := planned[i].Best
		got := planKey(best)
		if w.want[i] == "" {
			w.want[i] = got
			if r.writeGolden {
				r.gold.Plans[name] = got
			}
		}
		r.check(got == w.want[i], "%s: planned %q, want %q", name, got, w.want[i])
		// Validate walks n! orders; once per distinct plan is enough.
		if !w.valid[name+got] {
			err := restrict.Validate(p, best.Restrictions)
			r.check(err == nil, "%s: restriction set %s: %v", name, best.Restrictions, err)
			w.valid[name+got] = err == nil
		}
	}
	return res
}

func (w *planWL) layers(r *run) error {
	// One root span per planned pattern; planning is the whole query here.
	for i, p := range w.pats {
		qid := r.rec.newQuery()
		root, end := r.rec.begin("query", 0, qid)
		_, endPlan := r.rec.begin("plan", root, qid)
		_, err := core.Plan(p, w.stats, core.PlanOptions{})
		endPlan()
		end()
		r.check(err == nil, "%s: %v", w.queries[i].Name, err)
	}
	r.put1("trace.coverage", r.rec.coverage("query"))
	_, err := r.commonProbes(w.spec, w.el, w.queries)
	return err
}

// planKey renders a configuration's schedule and restriction set, the part of
// a plan the goldens pin.
func planKey(cfg *core.Config) string {
	return cfg.Schedule.String() + " | " + cfg.Restrictions.String()
}
