package main

// The declarations in this file are the benchmark's schema. BENCHMARK.json at
// the repository root mirrors them (TestBenchmarkJSONMatchesRegistry keeps
// the two in step); every later performance or simplicity change is judged
// against these names, units, directions and bounds.

// metricDef declares one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is rejected; per-layer
// metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// defaultSeconds is the measuring window of one run (BENCHMARK.json
// run_seconds). The issue asked for >= 7 passes of 1.5-3 s; the driver's
// budget (4 + 22 x 6 runs and two builds inside 3420 s) leaves ~24 s per run
// including set-up and the warm pass, so the window is 15 s (5-12 passes) and
// no graph was shrunk.
const defaultSeconds = 15

// Graph structure comes from the constant genSeed; -seed relabels vertices
// and orders requests (see README "Seeds"), so golden counts hold at every
// -seed.
const (
	defaultSeed = 4242
	genSeed     = 4242
)

var workloads = []workloadDef{
	{"clique-rmat", "CountIEP K4+K5 on RMAT(scale 15, 400k edges), hub bitmaps: nearly all time is vertexset kernels on skewed rows in the generated clique tier; planner, IEP and service idle"},
	{"cyclic-ba", "CountIEP House, Cycle6Tri, reference p4 on BA(30k,8): low clustering, non-clique schedules; compiled tier, restriction windows, planner choice and IEP tail work; hubs and aux near-idle"},
	{"enumerate-ba", "Plan.Enumerate House+Rectangle on BA(30k,8) into a checksum: embeddings materialised, ids mapped back through the reorder map, interpreter only; a count-path gain that costs enumeration shows here"},
	{"plan-cold", "core.Plan from scratch for P1-P6, reference p1-p5, all 4/5/6-vertex motifs and K7 on BA(30k,8) stats: perm/restrict/schedule/costmodel do all the work, the engine none (paper Table III)"},
	{"service-mix", "ServeQueries, fresh server per pass, P closed-loop clients, 2400 requests, BA(1000,4): 80% hot /count, 10% relabelled n:matrix, 5% cold motif BA(300,4), 5% /enumerate; admission+cache+encoding set p50"},
	{"cluster-loopback", "two ServeCluster workers on 127.0.0.1, one ConnectCluster handle, Cluster.Count House+Cycle6Tri on the cyclic-ba graph: same engine work behind handshake, deal, acks, steal relay and reduce"},
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them, and none of them can read 0 (the driver's contract), which is
// why the issue's fail_ratio is declared as its complement ok_ratio. Its bound
// is below one failure in a million operations, far more than a run attempts,
// so any increase in failures is a regression. peak_rss_mb has the 15% the
// issue allows at most. The timings have the contract's 25%: the build
// machine's two vCPUs speed up and slow down by 20% in phases that last
// minutes (README "Measured spread"), which no window that fits the driver's
// budget averages out, and a bound has to sit above the spread of the machine
// that checks it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ok_ratio", "ratio", "higher", 0.000001},
}

// perLayer lists the single-layer metrics of the traced phase, named
// <module>.<metric>. A metric a workload cannot measure is absent from its
// text rows and reads 0 in the driver's JSON line.
var perLayer = []metricDef{
	// internal/graph: moves setup_s and peak_rss_mb everywhere, never solve_s.
	{Name: "graph.generate_s", Unit: "s", Better: "lower"},
	{Name: "graph.reorder_s", Unit: "s", Better: "lower"},
	{Name: "graph.hub_build_s", Unit: "s", Better: "lower"},
	{Name: "graph.snapshot_roundtrip_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_bytes", Unit: "B", Better: "lower"},
	{Name: "graph.hub_bytes", Unit: "B", Better: "lower"},
	// internal/vertexset: solve_s on clique-rmat (large share), cyclic-ba (small).
	{Name: "vertexset.merge_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "vertexset.gallop_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "vertexset.bitmap_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "vertexset.intersect_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "vertexset.size_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "vertexset.est_share", Unit: "ratio", Better: "lower"},
	// internal/iep: solve_s on cyclic-ba and cluster-loopback; zero on enumerate-ba.
	{Name: "iep.count_ns", Unit: "ns", Better: "lower"},
	{Name: "iep.evals", Unit: "count", Better: "lower"},
	// planner modules: solve_s on plan-cold, latency_p99_ms on service-mix.
	{Name: "restrict.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "restrict.sets", Unit: "count", Better: "lower"},
	{Name: "schedule.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.candidates", Unit: "count", Better: "lower"},
	{Name: "costmodel.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "perm.closure_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_self_ms", Unit: "ms", Better: "lower"},
	// internal/codegen: latency_p99_ms on service-mix; warm passes elsewhere exclude it.
	{Name: "codegen.compile_ms", Unit: "ms", Better: "lower"},
	// internal/core: solve_s on the three engine workloads. The counters
	// repeat exactly at one worker and one -seed and are the only numbers a
	// later change may claim as counts.
	{Name: "core.interp_s", Unit: "s", Better: "lower"},
	{Name: "core.compiled_s", Unit: "s", Better: "lower"},
	{Name: "core.generated_s", Unit: "s", Better: "lower"},
	{Name: "core.scans", Unit: "count", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.intersections", Unit: "count", Better: "lower"},
	{Name: "core.kernel_merge", Unit: "count", Better: "lower"},
	{Name: "core.kernel_gallop", Unit: "count", Better: "lower"},
	{Name: "core.kernel_bitmap", Unit: "count", Better: "lower"},
	{Name: "core.kernel_aux", Unit: "count", Better: "lower"},
	{Name: "core.prunes", Unit: "count", Better: "higher"},
	{Name: "core.dup_skips", Unit: "count", Better: "lower"},
	{Name: "core.top_level_share", Unit: "ratio", Better: "lower"},
	{Name: "core.drift_ratio", Unit: "ratio", Better: "lower"},
	// internal/auxgraph: solve_s on clique-rmat only; ~1.0 on cyclic-ba.
	{Name: "auxgraph.rows", Unit: "count", Better: "lower"},
	{Name: "auxgraph.hits", Unit: "count", Better: "higher"},
	{Name: "auxgraph.bytes", Unit: "B", Better: "lower"},
	{Name: "auxgraph.on_off_ratio", Unit: "ratio", Better: "higher"},
	// internal/taskpool: solve_s at P on the engine workloads; must not move solve_1p_s.
	{Name: "taskpool.solve_1p_s", Unit: "s", Better: "lower"},
	{Name: "taskpool.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "taskpool.dispatch_ns", Unit: "ns", Better: "lower"},
	// internal/telemetry and the benchmark's own span recorder.
	{Name: "telemetry.stats_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	// internal/service: latency and solve_s on service-mix, nothing elsewhere.
	{Name: "service.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.plan_ms_miss", Unit: "ms", Better: "lower"},
	{Name: "service.plan_us_hit", Unit: "us", Better: "lower"},
	{Name: "service.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.enumerate_mb_per_s", Unit: "MB/s", Better: "higher"},
	// internal/cluster: solve_s and setup_s on cluster-loopback only.
	{Name: "cluster.connect_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.job_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.tasks", Unit: "count", Better: "lower"},
	{Name: "cluster.steals", Unit: "count", Better: "lower"},
	{Name: "cluster.max_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.recovery_ratio", Unit: "ratio", Better: "lower"},
	// Size of the system, so "smaller at equal speed" reads from the same file.
	{Name: "surface.loc_nontest", Unit: "count", Better: "lower"},
	{Name: "surface.exported_symbols", Unit: "count", Better: "lower"},
	{Name: "surface.cli_flags", Unit: "count", Better: "lower"},
}

// metricUnit returns the declared unit of a metric, or "" for an unknown name.
func metricUnit(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
