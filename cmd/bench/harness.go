package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// workload is what the harness needs from each of the six workloads.
type workload interface {
	// setup does everything that precedes the first query (generate, load,
	// Optimize, start servers, dial); it is what setup_s times. It may be
	// called again after close.
	setup(r *run) error
	// warm is the untimed first pass: it plans, compiles, faults the graph
	// in and fetches the expected answers.
	warm(r *run) error
	// pass runs the whole query list once, verifying every answer.
	pass(r *run) passResult
	// layers is the traced phase: it reports the per-layer metrics.
	layers(r *run) error
	close()
}

// passResult is one timed pass: its wall time and the client-side latency of
// each operation in it.
type passResult struct {
	seconds     float64
	latenciesMS []float64
}

const (
	// setup_s is the median of the run's set-ups: at least minSetups, then
	// more until setupBudget is spent, so a 2 ms set-up is not judged by five
	// readings of timer and scheduler jitter.
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
	// minPasses timed passes per run even if the window is shorter.
	minPasses = 3
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "clique-rmat":
		return &engineWL{spec: rmat15, queries: []query{{"k4", "k4"}, {"k5", "k5"}}}, nil
	case "cyclic-ba":
		return &engineWL{spec: ba30k, queries: []query{{"house", "house"}, {"cycle6tri", "cycle6tri"}, referencePatterns[3]}}, nil
	case "enumerate-ba":
		return &engineWL{spec: ba30k, enumerate: true, queries: []query{{"house", "house"}, {"rectangle", "rectangle"}}}, nil
	case "plan-cold":
		return &planWL{spec: ba30k, queries: planColdQueries()}, nil
	case "service-mix":
		return newServiceWL(), nil
	case "cluster-loopback":
		return &clusterWL{spec: ba30k, queries: []query{{"house", "house"}, {"cycle6tri", "cycle6tri"}}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

func isEngineWorkload(name string) bool {
	return name == "clique-rmat" || name == "cyclic-ba" || name == "enumerate-ba"
}

// execute runs one workload in this process: set-up, warm pass, then either
// the timed passes (end-to-end metrics, tracing off) or the traced phase
// (per-layer metrics). End-to-end numbers never come from the traced phase.
func (r *run) execute() error {
	if r.graphFile != "" && !isEngineWorkload(r.workload) {
		return fmt.Errorf("-graph applies to the engine workloads only")
	}
	w, err := newWorkload(r.workload)
	if err != nil {
		return err
	}
	once := r.trace || r.writeGolden // these modes do not report setup_s
	var setups []float64
	var spent time.Duration
	for {
		runtime.GC() // the previous instance is garbage: keep it out of setup_s and peak_rss_mb
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if n := len(setups); once || n == maxSetups || (n >= minSetups && spent >= setupBudget) {
			break
		}
		w.close()
	}
	defer w.close()
	if err := w.warm(r); err != nil {
		return err
	}
	if r.writeGolden {
		return nil
	}
	if r.trace {
		return w.layers(r)
	}

	var solve, p50, p99, rss []float64
	samples, resolved := 0, true
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(solve) < minPasses || time.Now().Before(deadline) {
		// Collect between passes, not at a random point inside one, and hand
		// freed pages back so every pass's peak starts from the live set.
		debug.FreeOSMemory()
		resetPeakRSS()
		p := w.pass(r)
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		solve = append(solve, p.seconds)
		p50 = append(p50, median(p.latenciesMS))
		t, ok := tail(p.latenciesMS)
		p99 = append(p99, t)
		resolved = resolved && ok
		samples += len(p.latenciesMS)
	}
	r.put("setup_s", setups)
	r.put("solve_s", solve)
	r.put("latency_p50_ms", p50)
	tailRow := summary("latency_p99_ms", p99)
	if !resolved {
		tailRow.Note = fmt.Sprintf("p99 unresolved at %d operations per pass: slowest operation of each pass", samples/len(solve))
	}
	r.putRow(tailRow)
	r.put("peak_rss_mb", rss)
	r.put1("ok_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	return nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so each pass reports its own peak and one stray
// allocation burst (GC pacing under load is timing-dependent) moves one
// sample, not the run. Where the kernel refuses, every pass reads the
// process-wide peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
