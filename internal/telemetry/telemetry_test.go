package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRunStatsMerge(t *testing.T) {
	a := NewRunStats(3)
	b := NewRunStats(3)
	a.Levels[1].Scan(10, 2)
	a.Levels[1].Intersect(KernelMerge)
	b.Levels[1].Scan(20, 0)
	b.Levels[1].Intersect(KernelBitmap)
	b.Levels[2].DupSkips = 4
	a.Merge(b)
	l := a.Levels[1]
	if l.Scans != 2 || l.Candidates != 30 || l.CandMax != 20 || l.Prunes != 2 {
		t.Errorf("merged level 1 = %+v", l)
	}
	if l.Intersections != 2 || l.Kernels[KernelMerge] != 1 || l.Kernels[KernelBitmap] != 1 {
		t.Errorf("merged kernels = %+v", l)
	}
	if a.Levels[2].DupSkips != 4 {
		t.Errorf("dup skips not merged")
	}
	if a.TotalIntersections() != 2 || a.TotalCandidates() != 30 {
		t.Errorf("totals = %d/%d", a.TotalIntersections(), a.TotalCandidates())
	}
}

func TestScanTimerSampling(t *testing.T) {
	var l LevelStats
	timed := 0
	for i := 0; i < 1<<scanSampleShift*4; i++ {
		if tok := l.ScanTimerStart(); tok != 0 {
			timed++
			l.ScanTimerEnd(tok)
		}
	}
	if timed != 4 {
		t.Errorf("sampled %d scans, want 4", timed)
	}
	if l.WallNS < 0 {
		t.Errorf("negative wall estimate %d", l.WallNS)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Hour) // lands in the top (+Inf-ish) bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	wantSum := int64(2*100 + int64(time.Millisecond) + int64(time.Hour))
	if s.SumNS != wantSum {
		t.Errorf("sum = %d want %d", s.SumNS, wantSum)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d", total)
	}
	// Merge with itself doubles everything.
	m := s
	m.Buckets = append([]Bucket(nil), s.Buckets...)
	m.Merge(s)
	if m.Count != 8 || m.SumNS != 2*wantSum {
		t.Errorf("merged = %+v", m)
	}
	if s.MeanNS() != wantSum/4 {
		t.Errorf("mean = %d", s.MeanNS())
	}
	h.Reset()
	if got := h.Snapshot(); got.Count != 0 || len(got.Buckets) != 0 {
		t.Errorf("reset snapshot = %+v", got)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestClassifyIntersect(t *testing.T) {
	if k := ClassifyIntersect(10, 12, 16); k != KernelMerge {
		t.Errorf("near-equal sizes → %s", KernelName(k))
	}
	if k := ClassifyIntersect(4, 100, 16); k != KernelGallop {
		t.Errorf("skewed sizes → %s", KernelName(k))
	}
	if k := ClassifyIntersect(100, 4, 16); k != KernelGallop {
		t.Errorf("skewed sizes (swapped) → %s", KernelName(k))
	}
}

func TestBuildDrift(t *testing.T) {
	// Two levels: root over 100 vertices, level 1 scans ~8 candidates per
	// root with one intersection each and filter prob 0.5.
	pred := PredictedLevels{
		LoopSize:   []float64{100, 8},
		FilterProb: []float64{0, 0.5},
		Steps:      []int{0, 1},
		IEPCut:     -1,
		Cost:       12345,
	}
	st := NewRunStats(2)
	st.Levels[0].Scan(100, 0)
	st.Levels[1].Scans = 100
	st.Levels[1].Candidates = 420
	st.Levels[1].Intersections = 380
	rep := BuildDrift(pred, st)
	if len(rep.Levels) != 2 {
		t.Fatalf("levels = %d", len(rep.Levels))
	}
	l1 := rep.Levels[1]
	// 100 root iters × 8×0.5 surviving level-1 iters × 1 step = 400.
	if l1.PredictedIntersections != 400 {
		t.Errorf("predicted intersections = %v", l1.PredictedIntersections)
	}
	if !l1.Valid || math.Abs(l1.Ratio-380.0/400.0) > 1e-12 {
		t.Errorf("ratio = %v valid=%v", l1.Ratio, l1.Valid)
	}
	if rep.PredictedCost != 12345 {
		t.Errorf("cost = %v", rep.PredictedCost)
	}
	if rep.TotalActual != 380 || rep.TotalPredicted != 400 {
		t.Errorf("totals = %d/%v", rep.TotalActual, rep.TotalPredicted)
	}
	if math.Abs(rep.OverallRatio-0.95) > 1e-12 {
		t.Errorf("overall ratio = %v", rep.OverallRatio)
	}

	// Level 0 hoists no intersections: ratio falls back to candidates.
	l0 := rep.Levels[0]
	if !l0.Valid || math.Abs(l0.Ratio-1.0) > 1e-12 {
		t.Errorf("level 0 ratio = %v valid=%v", l0.Ratio, l0.Valid)
	}
}

func TestBuildDriftIEPAndNilStats(t *testing.T) {
	pred := PredictedLevels{
		LoopSize:   []float64{10, 5, 5},
		FilterProb: []float64{0, 0, 0},
		Steps:      []int{0, 1, 1},
		IEPCut:     1,
	}
	rep := BuildDrift(pred, nil)
	if !rep.Levels[2].CoveredByIEP {
		t.Errorf("level 2 should be covered by IEP")
	}
	if rep.Levels[2].Valid {
		t.Errorf("IEP-covered level must not carry a ratio")
	}
	if rep.TotalPredicted == 0 {
		t.Errorf("nil-stats report should still carry predictions")
	}
}

// TestBuildDriftZeroScanLevels: the engine abandons a prefix whose hoisted
// intersection is empty, so on a triangle-free graph the levels below the
// first step record nothing at all. The report must stay finite (it is
// JSON-encoded under ?profile=1) and read those levels as ratio 0, not as
// missing — including when the model's own numbers are degenerate.
func TestBuildDriftZeroScanLevels(t *testing.T) {
	pred := PredictedLevels{
		LoopSize:   []float64{50, 6, 2, 1e-322},
		FilterProb: []float64{0, 0, 0, 0},
		Steps:      []int{0, 1, 1, 1},
		IEPCut:     -1,
	}
	st := NewRunStats(4)
	st.Levels[0].Scan(50, 0)
	st.Levels[1].Scans, st.Levels[1].Candidates = 50, 300
	st.Levels[1].Intersections, st.Levels[1].Cuts = 300, 300
	rep := BuildDrift(pred, st)
	if l2 := rep.Levels[2]; !l2.Valid || l2.Ratio != 0 || l2.ActualIters != 0 {
		t.Errorf("zero-scan level = %+v, want a valid ratio of 0", l2)
	}
	for _, ld := range rep.Levels {
		if math.IsNaN(ld.Ratio) || math.IsInf(ld.Ratio, 0) {
			t.Errorf("level %d ratio %v is not finite", ld.Level, ld.Ratio)
		}
	}
	if math.IsNaN(rep.OverallRatio) || math.IsInf(rep.OverallRatio, 0) {
		t.Errorf("overall ratio %v is not finite", rep.OverallRatio)
	}
	// Degenerate predictions with nonzero actuals must not overflow either.
	st.Levels[3].Intersections = 7
	rep = BuildDrift(pred, st)
	if l3 := rep.Levels[3]; math.IsInf(l3.Ratio, 0) || math.IsNaN(l3.Ratio) {
		t.Errorf("level 3 ratio %v is not finite", l3.Ratio)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("drift report does not encode: %v", err)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(50 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	e := NewExposition()
	e.AddCounter("graphpi_test_jobs_total", "jobs processed", 42, nil)
	e.AddGauge("graphpi_test_queue_depth", "queued jobs", 3, map[string]string{"backend": "local"})
	e.AddGauge("graphpi_test_queue_depth", "queued jobs", 1, map[string]string{"backend": "cluster"})
	e.AddHistogram("graphpi_test_task_seconds", "per-task latency", h.Snapshot(), nil)

	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE graphpi_test_jobs_total counter",
		"graphpi_test_jobs_total 42",
		`graphpi_test_queue_depth{backend="cluster"} 1`,
		"# TYPE graphpi_test_task_seconds histogram",
		`graphpi_test_task_seconds_bucket{le="+Inf"} 2`,
		"graphpi_test_task_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Errorf("self-rendered exposition fails validation: %v\n%s", err, out)
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":       "foo 1\n",
		"bad name":      "# TYPE 1bad counter\n1bad 1\n",
		"duplicate":     "# TYPE a counter\na 1\na 2\n",
		"neg counter":   "# TYPE a counter\na -1\n",
		"no inf bucket": "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
		"type after sample": "# TYPE a counter\na 1\n# TYPE a gauge\n",
	}
	for name, payload := range cases {
		if err := CheckExposition([]byte(payload)); err == nil {
			t.Errorf("%s: expected validation error for:\n%s", name, payload)
		}
	}
	if err := CheckExposition([]byte("# HELP a ok\n# TYPE a gauge\na{x=\"y\"} 2.5 1700000000\n\n")); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
}

func TestRegistryGather(t *testing.T) {
	// Registered once at package level below; Gather must expose them.
	testCounter.Inc()
	testCounter.Add(2)
	testGauge.Set(7)
	testHist.Observe(time.Millisecond)
	var found int
	for _, m := range Gather() {
		switch m.Name {
		case "graphpi_telemetrytest_ops_total":
			found++
			if m.Type != "counter" || m.Value < 3 {
				t.Errorf("counter gathered as %+v", m)
			}
		case "graphpi_telemetrytest_depth":
			found++
			if m.Type != "gauge" || m.Value != 7 {
				t.Errorf("gauge gathered as %+v", m)
			}
		case "graphpi_telemetrytest_lat_seconds":
			found++
			if m.Type != "histogram" || m.Hist.Count < 1 {
				t.Errorf("histogram gathered as %+v", m)
			}
		}
	}
	if found != 3 {
		t.Errorf("gathered %d of 3 test metrics", found)
	}
}

var (
	testCounter = NewCounter("graphpi_telemetrytest_ops_total", "test counter")
	testGauge   = NewGauge("graphpi_telemetrytest_depth", "test gauge")
	testHist    = NewHistogram("graphpi_telemetrytest_lat_seconds", "test histogram")
)

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate registration did not panic")
		}
	}()
	NewCounter("graphpi_telemetrytest_ops_total", "dup")
}

func TestTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Now().Add(-2 * time.Millisecond)
	tr.Span("plan", start, map[string]string{"cache": "miss"})
	tr.Span("run", start, nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var ev SpanEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if ev.Span != "plan" || ev.Attrs["cache"] != "miss" || ev.DurMS <= 0 {
		t.Errorf("event = %+v", ev)
	}
	if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
		t.Errorf("timestamp %q: %v", ev.TS, err)
	}

	var nilT *Tracer
	nilT.Span("noop", time.Now(), nil) // must not panic
}
