// Command graphpi counts or lists embeddings of a pattern in a data graph.
//
// Usage:
//
//	graphpi -graph data.txt -pattern house
//	graphpi -dataset WikiVote-S -pattern p3 -iep
//	graphpi -graph data.bin -pattern 5:0110110011... -list -limit 10
//	graphpi -dataset Orkut-S -pattern house -iep -nodes 4 -node-workers 2
//
// Distributed mode runs the same jobs across TCP worker processes that each
// hold a replica of the data graph (share a GPiCSR3 snapshot):
//
//	graphpi -graph data.bin -serve :9421                 # on each worker
//	graphpi -serve :9421                                 # cold worker: fetches the
//	                                                     # snapshot from its master
//	graphpi -graph data.bin -pattern house -iep \
//	        -join host1:9421,host2:9421                  # on the master
//
// Server mode holds the graph resident and answers count/enumerate queries
// over HTTP with a plan cache, admission control and cancellable jobs (see
// the README's "Serving queries" quickstart):
//
//	graphpi -graph data.bin -hybrid -server :8080
//	graphpi -graph data.bin -server :8080 -cluster-workers host1:9421,host2:9421
//
// The process is exactly one of: a one-shot query (default), a cluster
// worker (-serve), a cluster master (-join), or a query server (-server);
// combining those flags is an error, never a silent preference.
//
// -pattern takes a name (triangle, rectangle, pentagon, house, cycle6tri,
// p1..p6, k3..k12) or an n:rowmajor01matrix adjacency string. The tool prints
// the chosen configuration (schedule + restrictions), the preprocessing
// time, and the result.
//
// Exit codes: 0 on success, 1 on a runtime failure (I/O, network, job
// errors), 2 on a usage error (bad flags or flag combinations — the same
// code the flag package uses for parse failures).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphpi"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "edge-list or binary graph file")
		datasetName = flag.String("dataset", "", "built-in synthetic dataset ("+strings.Join(graphpi.DatasetNames(), ", ")+")")
		scale       = flag.Float64("scale", 1.0, "dataset scale factor")
		patSpec     = flag.String("pattern", "triangle", "pattern: a name (triangle, rectangle, pentagon, house, cycle6tri, p1..p6, k3..k12) or n:rowmajor01matrix")
		useIEP      = flag.Bool("iep", false, "count with the Inclusion-Exclusion Principle")
		list        = flag.Bool("list", false, "list embeddings instead of counting")
		limit       = flag.Int64("limit", 20, "max embeddings to list with -list (0 = all)")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS; with -serve, 0 = honor the master; with -server, the budget the run slots share, which caps -max-jobs)")
		hybrid      = flag.Bool("hybrid", false, "run on the degree-ordered, bitmap-accelerated hybrid adjacency view (hub bitmaps within 64 MiB)")
		nodes       = flag.Int("nodes", 0, "count on a cluster of this many in-process nodes (0 = single process)")
		nodeWorkers = flag.Int("node-workers", 2, "worker goroutines per node with -nodes")
		serveAddr   = flag.String("serve", "", "run as a cluster worker process listening on this address (e.g. :9421)")
		joinAddrs   = flag.String("join", "", "count across these comma-separated cluster worker addresses")
		serverAddr  = flag.String("server", "", "run as a resident HTTP query server listening on this address (e.g. :8080)")
		clusterWk   = flag.String("cluster-workers", "", "with -server: dispatch counting queries across these comma-separated cluster worker addresses")
		graphName   = flag.String("graph-name", "", "with -server: name the resident graph is served under (default: its dataset name, or \"default\")")
		maxJobs     = flag.Int("max-jobs", 0, "with -server: max concurrently executing queries (0 = 2)")
		maxQueue    = flag.Int("max-queue", 0, "with -server: max queries waiting for a slot before 429s (0 = 64)")
		emitGo      = flag.String("emit-go", "", "write standalone Go source for the planned configuration to this path and exit")
		tracePath   = flag.String("trace", "", "append NDJSON span events (plan/run/cluster-deal) to this file")
		pprofOn     = flag.Bool("pprof", false, "with -server: expose net/http/pprof under /debug/pprof/")
		statsOn     = flag.Bool("stats", false, "one-shot runs: print per-level run stats and cost-model drift after the result")
	)
	flag.Parse()

	if err := validateFlags(flagState{
		nodes:       *nodes,
		nodeWorkers: *nodeWorkers,
		maxJobs:     *maxJobs,
		maxQueue:    *maxQueue,
		serveAddr:   *serveAddr,
		joinAddrs:   *joinAddrs,
		serverAddr:  *serverAddr,
		clusterWk:   *clusterWk,
		list:        *list,
		limit:       *limit,
		emitGo:      *emitGo,
		pprofOn:     *pprofOn,
		statsOn:     *statsOn,
	}); err != nil {
		failUsage(err)
	}
	workerAddrs, err := parseAddrList("-join", *joinAddrs)
	if err != nil {
		failUsage(err)
	}
	clusterAddrs, err := parseAddrList("-cluster-workers", *clusterWk)
	if err != nil {
		failUsage(err)
	}

	// -trace appends span events; the file stays open for the process's
	// lifetime (server mode traces every query it serves).
	var (
		tracer *graphpi.Tracer
		traceW io.Writer
	)
	if *tracePath != "" {
		tf, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer tf.Close()
		traceW = tf
		tracer = graphpi.NewTracer(tf)
	}

	var g *graphpi.Graph
	if *graphPath == "" && *datasetName == "" && *serveAddr != "" {
		// A cold worker: no local replica, fetch a fingerprint-verified
		// snapshot from the first master that connects.
		fmt.Println("graph: none (cold worker; fetching a snapshot from the first master)")
	} else {
		g, err = loadGraph(*graphPath, *datasetName, *scale)
		if err != nil {
			fail(err)
		}
		fmt.Printf("graph: %s (%s)\n", g.Name(), g.StatsString())
		if *hybrid {
			prep := time.Now()
			g = g.Optimize(0)
			fmt.Printf("hybrid view: degree-ordered, bitmaps built in %v\n",
				time.Since(prep).Round(time.Microsecond))
		}
	}

	if *serverAddr != "" {
		runServer(*serverAddr, g, serverOptions{
			name:         *graphName,
			clusterAddrs: clusterAddrs,
			nodeWorkers:  *nodeWorkers,
			workers:      *workers,
			maxJobs:      *maxJobs,
			maxQueue:     *maxQueue,
			pprof:        *pprofOn,
			traceW:       traceW,
		})
		return
	}
	if *serveAddr != "" {
		runServe(*serveAddr, g, *workers)
		return
	}

	p, err := graphpi.ParsePattern(*patSpec)
	if err != nil {
		failUsage(err)
	}
	fmt.Printf("pattern: %s\n", p)

	opts := []graphpi.Option{graphpi.WithWorkers(*workers)}
	if tracer != nil {
		opts = append(opts, graphpi.WithTracer(tracer))
	}
	var runStats *graphpi.RunStats
	if *statsOn {
		runStats = graphpi.NewRunStats(p.N())
		opts = append(opts, graphpi.WithRunStats(runStats))
	}
	if *nodes > 0 || len(workerAddrs) > 0 {
		if *workers != 0 {
			fmt.Fprintln(os.Stderr, "graphpi: -workers is ignored in cluster modes; use -node-workers")
		}
		runCluster(g, p, *nodes, *nodeWorkers, *useIEP, workerAddrs, opts)
		return
	}
	plan, err := graphpi.NewPlan(g, p, opts...)
	if err != nil {
		fail(err)
	}
	fmt.Printf("plan: %s (preprocessing %v)\n", plan.Describe(), plan.PrepTime().Round(time.Microsecond))
	if !*list {
		fmt.Printf("tier: %s\n", plan.ExecutionTier(*useIEP))
	}

	if *emitGo != "" {
		src, err := plan.GenerateSource()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*emitGo, []byte(src), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote generated matcher source to %s\n", *emitGo)
		return
	}

	start := time.Now()
	switch {
	case *list:
		shown := listEmbeddings(os.Stdout, plan, *limit)
		fmt.Printf("listed %d embeddings in %v\n", shown, time.Since(start).Round(time.Millisecond))
	case *useIEP:
		count := plan.CountIEP()
		fmt.Printf("count (IEP): %d in %v\n", count, time.Since(start).Round(time.Millisecond))
	default:
		count := plan.Count()
		fmt.Printf("count: %d in %v\n", count, time.Since(start).Round(time.Millisecond))
	}
	if runStats != nil {
		printRunStats(plan, *useIEP && !*list, runStats)
	}
}

// listEmbeddings writes up to limit embeddings (0 = all) to w, one per line,
// and returns how many it wrote. Enumerate visits from every worker at
// once, so a visit claims its line with an atomic increment before it
// prints, and prints under a lock.
func listEmbeddings(w io.Writer, plan *graphpi.Plan, limit int64) int64 {
	var (
		claimed atomic.Int64
		mu      sync.Mutex
	)
	plan.Enumerate(func(emb []uint32) bool {
		n := claimed.Add(1)
		if limit > 0 && n > limit {
			return false
		}
		mu.Lock()
		fmt.Fprintf(w, "  %v\n", emb)
		mu.Unlock()
		return limit == 0 || n < limit
	})
	shown := claimed.Load()
	if limit > 0 {
		shown = min(shown, limit)
	}
	return shown
}

// printRunStats renders the run's per-level telemetry and the cost-model
// drift reconciliation after a -stats run.
func printRunStats(plan *graphpi.Plan, useIEP bool, st *graphpi.RunStats) {
	fmt.Println("run stats (per schedule level):")
	for d := range st.Levels {
		l := &st.Levels[d]
		fmt.Printf("  level %d: scans=%d cand=%d (max %d) isect=%d [merge %d, gallop %d, bitmap %d, memo %d] prunes=%d dups=%d cuts=%d iep=%d wall~%v\n",
			d, l.Scans, l.Candidates, l.CandMax, l.Intersections,
			l.Kernels[0], l.Kernels[1], l.Kernels[2], l.MemoHits,
			l.Prunes, l.DupSkips, l.Cuts, l.IEPCounts,
			time.Duration(l.WallNS).Round(time.Microsecond))
	}
	rep, ok := plan.Drift(useIEP, st)
	if !ok {
		fmt.Println("cost-model drift: unavailable (plan carries no model statistics)")
		return
	}
	fmt.Printf("cost-model drift: overall actual/predicted intersections %.3f (predicted cost %.4g)\n",
		rep.OverallRatio, rep.PredictedCost)
	for _, ld := range rep.Levels {
		switch {
		case ld.CoveredByIEP:
			fmt.Printf("  level %d: evaluated in closed form by IEP\n", ld.Level)
		case ld.Valid:
			fmt.Printf("  level %d: predicted %.4g, actual %d, ratio %.3f\n",
				ld.Level, ld.PredictedIntersections, ld.ActualIntersections, ld.Ratio)
		default:
			fmt.Printf("  level %d: no comparable prediction\n", ld.Level)
		}
	}
}

// flagState carries the mode-relevant flags into validateFlags (testable
// without a flag.FlagSet).
type flagState struct {
	nodes, nodeWorkers               int
	maxJobs, maxQueue                int
	serveAddr, joinAddrs, serverAddr string
	clusterWk, emitGo                string
	list                             bool
	limit                            int64
	pprofOn, statsOn                 bool
}

// validateFlags rejects unusable combinations up front, instead of
// panicking later or silently picking one of two requested modes.
func validateFlags(f flagState) error {
	if f.nodes < 0 {
		return fmt.Errorf("-nodes must be >= 1 (or omitted for a single process), got %d", f.nodes)
	}
	if f.nodes > 0 && f.nodeWorkers < 1 {
		return fmt.Errorf("-node-workers must be >= 1, got %d", f.nodeWorkers)
	}
	if f.maxJobs < 0 {
		return fmt.Errorf("-max-jobs must be >= 0 (0 = default), got %d", f.maxJobs)
	}
	if f.maxQueue < 0 {
		return fmt.Errorf("-max-queue must be >= 0 (0 = default), got %d", f.maxQueue)
	}
	if f.limit < 0 {
		return fmt.Errorf("-limit must be >= 0 (0 = list every embedding), got %d", f.limit)
	}

	// A process runs exactly one mode. Name every conflicting pair so the
	// message says what to drop.
	modes := []struct {
		flag, val string
	}{
		{"-server", f.serverAddr},
		{"-serve", f.serveAddr},
		{"-join", f.joinAddrs},
	}
	var active []string
	for _, m := range modes {
		if m.val != "" {
			active = append(active, m.flag)
		}
	}
	if len(active) > 1 {
		return fmt.Errorf("%s are mutually exclusive: a process is a query server (-server), a cluster worker (-serve) or a cluster master (-join)",
			strings.Join(active, " and "))
	}

	for _, addr := range []struct{ flag, val string }{
		{"-server", f.serverAddr}, {"-serve", f.serveAddr},
	} {
		if addr.val == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(addr.val); err != nil {
			return fmt.Errorf("%s address %q is not host:port: %v", addr.flag, addr.val, err)
		}
	}

	if f.clusterWk != "" && f.serverAddr == "" {
		return fmt.Errorf("-cluster-workers only applies to -server mode (use -join for a one-shot distributed count)")
	}
	if f.nodes > 0 && (f.serverAddr != "" || f.serveAddr != "" || f.joinAddrs != "") {
		return fmt.Errorf("-nodes (in-process cluster) cannot be combined with -server, -serve or -join")
	}
	if f.list || f.emitGo != "" {
		switch {
		case f.serverAddr != "":
			return fmt.Errorf("-server cannot be combined with -list or -emit-go (use the /enumerate endpoint)")
		case f.serveAddr != "":
			return fmt.Errorf("-serve cannot be combined with -list or -emit-go")
		case f.joinAddrs != "" || f.nodes > 0:
			return fmt.Errorf("cluster modes count only; they cannot be combined with -list or -emit-go")
		}
	}

	if f.pprofOn && f.serverAddr == "" {
		return fmt.Errorf("-pprof only applies to -server mode")
	}
	if f.statsOn {
		switch {
		case f.serverAddr != "":
			return fmt.Errorf("-stats does not apply to -server (pass profile=1 per query instead)")
		case f.serveAddr != "" || f.joinAddrs != "" || f.nodes > 0:
			return fmt.Errorf("-stats only applies to one-shot runs (the cluster wire reduces counts, not counters)")
		}
	}
	return nil
}

// parseAddrList splits and validates a comma-separated host:port list.
func parseAddrList(flagName, addrs string) ([]string, error) {
	if addrs == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(addrs, ",") {
		addr := strings.TrimSpace(part)
		if addr == "" {
			return nil, fmt.Errorf("%s list %q contains an empty address", flagName, addrs)
		}
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("%s address %q is not host:port: %v", flagName, addr, err)
		}
		if host == "" || port == "" {
			return nil, fmt.Errorf("%s address %q needs both host and port", flagName, addr)
		}
		out = append(out, addr)
	}
	return out, nil
}

// serverOptions carries the -server flags into runServer.
type serverOptions struct {
	name         string
	clusterAddrs []string
	nodeWorkers  int
	workers      int
	maxJobs      int
	maxQueue     int
	pprof        bool
	traceW       io.Writer
}

// runServer turns this process into the resident query service: it holds
// the loaded graph in memory and answers HTTP queries until killed.
func runServer(addr string, g *graphpi.Graph, opt serverOptions) {
	name := opt.name
	if name == "" {
		name = g.Name()
	}
	if name == "" {
		name = "default"
	}
	srv, err := graphpi.ServeQueries(addr, graphpi.QueryServiceOptions{
		Graphs:                map[string]*graphpi.Graph{name: g},
		MaxConcurrentJobs:     opt.maxJobs,
		MaxQueuedJobs:         opt.maxQueue,
		TotalWorkers:          opt.workers,
		ClusterWorkers:        opt.clusterAddrs,
		ClusterWorkersPerNode: opt.nodeWorkers,
		EnablePprof:           opt.pprof,
		TraceWriter:           opt.traceW,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fail(err)
	}
	backend := "local engine"
	if len(opt.clusterAddrs) > 0 {
		backend = fmt.Sprintf("cluster of %d workers", len(opt.clusterAddrs))
	}
	fmt.Printf("query server: graph %q resident on %s, counting on the %s (Ctrl-C to stop)\n",
		name, srv.Addr(), backend)
	fmt.Printf("  try: curl 'http://%s/count?graph=%s&pattern=house'\n", srv.Addr(), name)
	if err := srv.Wait(); err != nil {
		fail(err)
	}
}

// runServe turns this process into a cluster worker: it blocks serving
// counting jobs against the loaded graph — or, when no graph was given, a
// snapshot fetched from its first master — until killed.
func runServe(addr string, g *graphpi.Graph, workerOverride int) {
	log.SetFlags(0) // the worker's log lines, bare on stderr
	srv, err := graphpi.ServeCluster(addr, g, workerOverride)
	if err != nil {
		fail(err)
	}
	what := "cold (snapshot on first contact)"
	if g != nil {
		what = g.Name()
	}
	fmt.Printf("cluster worker: serving %s on %s (Ctrl-C to stop)\n", what, srv.Addr())
	if err := srv.Wait(); err != nil {
		fail(err)
	}
}

// runCluster counts on the multi-node runtime — in-process nodes, or TCP
// workers when addrs is non-empty — and reports the per-node load balance
// (tasks, busy time) alongside the count.
func runCluster(g *graphpi.Graph, p *graphpi.Pattern, nodes, workersPerNode int, useIEP bool, addrs []string, opts []graphpi.Option) {
	count := graphpi.ClusterCount
	if len(addrs) > 0 {
		c, err := graphpi.ConnectCluster(addrs...)
		if err != nil {
			fail(err)
		}
		defer c.Close()
		count = c.Count
	}
	res, err := count(g, p, graphpi.ClusterOptions{
		Nodes:          nodes,
		WorkersPerNode: workersPerNode,
		UseIEP:         useIEP,
	}, opts...)
	if err != nil {
		fail(err)
	}
	where := fmt.Sprintf("%d nodes", len(res.TasksPerNode))
	if len(addrs) > 0 {
		where = fmt.Sprintf("%d TCP workers", len(addrs))
	}
	fmt.Printf("cluster: %s x %d workers, %d tasks\n",
		where, workersPerNode, res.Tasks)
	for i := range res.TasksPerNode {
		fmt.Printf("  node %d: %5d tasks, busy %v\n",
			i, res.TasksPerNode[i], res.BusyPerNode[i].Round(time.Microsecond))
	}
	fmt.Printf("count: %d in %v (max busy share %.2f, ideal %.2f)\n",
		res.Count, res.Elapsed.Round(time.Millisecond),
		res.MaxBusyShare(), 1/float64(len(res.TasksPerNode)))
}

func loadGraph(path, ds string, scale float64) (*graphpi.Graph, error) {
	switch {
	case path != "":
		return graphpi.LoadGraph(path)
	case ds != "":
		return graphpi.LoadDataset(ds, scale)
	default:
		return nil, fmt.Errorf("one of -graph or -dataset is required")
	}
}

// Exit codes, unified across every mode: 1 for runtime failures, 2 for
// usage errors (matching the flag package's own parse-failure exit).
const (
	exitRuntime = 1
	exitUsage   = 2
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphpi:", err)
	os.Exit(exitRuntime)
}

func failUsage(err error) {
	fmt.Fprintln(os.Stderr, "graphpi:", err)
	os.Exit(exitUsage)
}
