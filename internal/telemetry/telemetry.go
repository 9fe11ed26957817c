// Package telemetry is GraphPi's instrumentation layer: per-level run
// statistics collected by every execution tier, lock-free latency histograms
// (the query service's and the cluster control plane's, served as JSON
// snapshots on /metrics), cost-model drift reports, and an NDJSON span
// tracer.
//
// The design goal is near-zero overhead. Collection is opt-in per run: the
// engine carries a *RunStats pointer that is nil when telemetry is disabled,
// so the hot path pays one predictable nil check per candidate scan (not per
// candidate). When enabled, every worker records into its own private
// RunStats with plain (non-atomic) counters — no cache-line contention — and
// the shards are merged once after the task pool drains. Wall-clock reads
// never appear on count-bearing paths directly: the engine calls this
// package's sampled scan timers, keeping the `//graphpi:deterministic`
// closure free of time.Now while still estimating per-level wall time.
package telemetry

import "time"

// NumKernels enumerates the intersection kernel families the engine
// dispatches between; LevelStats.Kernels is indexed by these.
const (
	// KernelMerge is the linear two-pointer merge intersection.
	KernelMerge = iota
	// KernelGallop is the exponential-probe intersection for skewed sizes.
	KernelGallop
	// KernelBitmap is the O(|small|) hub-bitmap probe.
	KernelBitmap
	// KernelAux belonged to the removed auxiliary-graph pruning. No executor
	// books it; the slot keeps NumKernels and the kernels JSON array in shape.
	KernelAux
	// NumKernels is the kernel family count.
	NumKernels
)

// LevelStats holds the per-schedule-level counters one run accumulates.
// All fields are plain integers: a LevelStats belongs to one worker until
// the run's shards are merged.
type LevelStats struct {
	// Scans counts candidate-set scans entered at this level (one per
	// surviving iteration of the enclosing loop).
	Scans uint64 `json:"scans"`
	// Candidates sums the candidate-set sizes scanned at this level, after
	// restriction-window narrowing. CandMax is the largest single set.
	Candidates uint64 `json:"candidates"`
	CandMax    uint64 `json:"candMax"`
	// Intersections counts the evaluations of the steps hoisted to this
	// level, computed or served from the loop-invariant memo: the work the
	// loop nest asks for, whichever way it was done. Kernels splits the
	// computed ones by kernel family and MemoHits counts the served ones, so
	// the Kernels entries and MemoHits sum to Intersections.
	Intersections uint64             `json:"intersections"`
	Kernels       [NumKernels]uint64 `json:"kernels"`
	MemoHits      uint64             `json:"memoHits"`
	// Prunes counts candidates removed by this level's restriction window
	// (the paper's asymmetric-restriction break, observed).
	Prunes uint64 `json:"prunes"`
	// DupSkips counts candidates rejected by residual duplicate checks.
	DupSkips uint64 `json:"dupSkips"`
	// IEPCounts counts inclusion–exclusion evaluations taken at this level
	// (nonzero only at the IEP cut; the levels below it never iterate).
	IEPCounts uint64 `json:"iepCounts"`
	// Cuts counts the subtrees abandoned at this level because a hoisted
	// intersection came back empty: the iteration skipped its remaining
	// steps, every deeper loop and the IEP evaluation.
	Cuts uint64 `json:"cuts"`
	// WallNS estimates the wall time spent in scans of this level,
	// including nested deeper levels. It is sampled: every scanSample-th
	// scan is timed and the measured duration scaled up, so the engine pays
	// two clock reads per scanSample scans instead of two per scan.
	WallNS int64 `json:"wallNS"`

	sampleTick uint64
}

// scanSampleShift controls wall-time sampling: 1 in 2^scanSampleShift scans
// is timed. 64 keeps the clock off the hot path while converging quickly on
// the skewed scan populations real graphs produce.
const scanSampleShift = 6

// ScanTimerStart returns a start token for the sampled scan timer: zero for
// the unsampled majority of calls (the caller skips the matching end), a
// wall-clock reading otherwise. Keeping the clock read here, behind a
// package boundary, is what keeps time.Now out of the engine's
// deterministic closure — the sample never influences a count.
func (l *LevelStats) ScanTimerStart() int64 {
	l.sampleTick++
	if l.sampleTick&(1<<scanSampleShift-1) != 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// ScanTimerEnd accumulates a sampled scan duration, scaled by the sampling
// ratio. A zero token (unsampled call) is ignored.
func (l *LevelStats) ScanTimerEnd(start int64) {
	if start == 0 {
		return
	}
	l.WallNS += (time.Now().UnixNano() - start) << scanSampleShift
}

// Scan records entering one candidate scan of the given post-narrowing size,
// with pruned candidates removed by the restriction window.
func (l *LevelStats) Scan(size, pruned int) {
	l.Scans++
	l.Candidates += uint64(size)
	if uint64(size) > l.CandMax {
		l.CandMax = uint64(size)
	}
	l.Prunes += uint64(pruned)
}

// Intersect records one intersection dispatched to the given kernel family.
func (l *LevelStats) Intersect(kernel int) {
	l.Intersections++
	l.Kernels[kernel]++
}

// MemoHit records one step evaluation served from the memo, with no kernel.
func (l *LevelStats) MemoHit() {
	l.Intersections++
	l.MemoHits++
}

// merge folds o into l.
func (l *LevelStats) merge(o *LevelStats) {
	l.Scans += o.Scans
	l.Candidates += o.Candidates
	if o.CandMax > l.CandMax {
		l.CandMax = o.CandMax
	}
	l.Intersections += o.Intersections
	for k := range l.Kernels {
		l.Kernels[k] += o.Kernels[k]
	}
	l.MemoHits += o.MemoHits
	l.Prunes += o.Prunes
	l.DupSkips += o.DupSkips
	l.IEPCounts += o.IEPCounts
	l.Cuts += o.Cuts
	l.WallNS += o.WallNS
}

// RunStats aggregates one run's per-level statistics. The engine allocates
// one RunStats per worker and merges them when the run completes, so the
// counters are plain integers with no synchronization.
type RunStats struct {
	// Levels is indexed by schedule position (0 = outermost loop).
	Levels []LevelStats `json:"levels"`
	// Aux held the removed auxiliary-graph pruning's counters. Nothing
	// writes it any more; it stays zero.
	//
	// Deprecated: always zero.
	Aux struct{ Rows, Hits, Bytes uint64 } `json:"-"`
}

// NewRunStats allocates statistics for a run over n schedule levels.
func NewRunStats(n int) *RunStats {
	return &RunStats{Levels: make([]LevelStats, n)}
}

// Level returns the stats slot for a schedule level, or nil when the level
// is out of range (defensive: tiers never produce one).
func (s *RunStats) Level(d int) *LevelStats {
	if s == nil || d < 0 || d >= len(s.Levels) {
		return nil
	}
	return &s.Levels[d]
}

// Merge folds another run's (or worker shard's) stats into s. Shards with a
// different level count are merged over the common prefix.
func (s *RunStats) Merge(o *RunStats) {
	if s == nil || o == nil {
		return
	}
	n := len(s.Levels)
	if len(o.Levels) < n {
		n = len(o.Levels)
	}
	for i := 0; i < n; i++ {
		s.Levels[i].merge(&o.Levels[i])
	}
}

// Reset zeroes every level in place, keeping the allocation.
func (s *RunStats) Reset() {
	for i := range s.Levels {
		s.Levels[i] = LevelStats{}
	}
}
