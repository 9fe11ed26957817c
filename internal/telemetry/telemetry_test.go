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
	b.Levels[1].MemoHit()
	b.Levels[2].DupSkips = 4
	a.Merge(b)
	l := a.Levels[1]
	if l.Scans != 2 || l.Candidates != 30 || l.CandMax != 20 || l.Prunes != 2 {
		t.Errorf("merged level 1 = %+v", l)
	}
	// A memo hit is an intersection the nest asked for, served with no kernel.
	if l.Intersections != 3 || l.Kernels[KernelMerge] != 1 || l.Kernels[KernelBitmap] != 1 || l.MemoHits != 1 {
		t.Errorf("merged kernels = %+v", l)
	}
	if a.Levels[2].DupSkips != 4 {
		t.Errorf("dup skips not merged")
	}
	var intersections, candidates uint64
	for _, l := range a.Levels {
		intersections += l.Intersections
		candidates += l.Candidates
	}
	if intersections != 3 || candidates != 30 {
		t.Errorf("totals = %d/%d", intersections, candidates)
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
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil snapshot = %+v", s)
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
