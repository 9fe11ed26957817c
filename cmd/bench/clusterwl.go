package main

import (
	"bytes"
	"fmt"
	"time"

	"graphpi"
	"graphpi/internal/cluster"
)

// clusterNodes TCP workers serve the graph, one worker goroutine each.
const clusterNodes = 2

// clusterWL runs cyclic-ba's engine work behind the cluster data plane: two
// in-process ServeCluster workers on loopback, one ConnectCluster handle.
type clusterWL struct {
	spec    graphSpec
	queries []query

	el      edgeList
	g       *graphpi.Graph
	servers []*graphpi.ClusterServer
	addrs   []string
	cl      *graphpi.Cluster
	pats    []*graphpi.Pattern
	want    []int64
}

var clusterOpts = graphpi.ClusterOptions{WorkersPerNode: 1, UseIEP: true}

func (w *clusterWL) setup(r *run) error {
	el, err := r.makeEdges(w.spec)
	if err != nil {
		return err
	}
	g, err := el.facade()
	if err != nil {
		return err
	}
	w.el, w.g = el, g
	for i := 0; i < clusterNodes; i++ {
		srv, err := graphpi.ServeCluster("127.0.0.1:0", g, 1)
		if err != nil {
			return err
		}
		w.servers = append(w.servers, srv)
		w.addrs = append(w.addrs, srv.Addr())
	}
	w.cl, err = graphpi.ConnectCluster(w.addrs...)
	return err
}

func (w *clusterWL) close() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	for _, s := range w.servers {
		s.Close()
		s.Wait()
	}
	w.servers, w.addrs = nil, nil
}

func (w *clusterWL) warm(r *run) error {
	w.pats, w.want = nil, nil
	for _, q := range w.queries {
		p, err := q.facade()
		if err != nil {
			return err
		}
		w.pats = append(w.pats, p)
		w.want = append(w.want, r.wantCount(r.workload+"/"+q.Name, w.el, q, localCount(w.g, q)))
	}
	w.pass(r)
	return nil
}

func (w *clusterWL) pass(r *run) passResult {
	res, _ := w.countAll(r)
	return res
}

// countAll runs every query through the cluster handle and verifies the
// counts. In the traced phase each query gets a root span whose children are
// the facade tracer's plan and cluster-deal events.
func (w *clusterWL) countAll(r *run) (passResult, []*graphpi.ClusterResult) {
	var res passResult
	var results []*graphpi.ClusterResult
	t0 := time.Now()
	for i, p := range w.pats {
		var opts []graphpi.Option
		var events bytes.Buffer
		qid := r.rec.newQuery()
		root, end := r.rec.begin("query", 0, qid)
		if r.rec != nil {
			opts = append(opts, graphpi.WithTracer(graphpi.NewTracer(&events)))
		}
		q0 := time.Now()
		cr, err := w.cl.Count(w.g, p, clusterOpts, opts...)
		res.latenciesMS = append(res.latenciesMS, ms(time.Since(q0)))
		end()
		addTracerSpans(r.rec, &events, root, qid)
		if err != nil {
			r.check(false, "%s: %v", w.queries[i].Name, err)
			continue
		}
		r.check(cr.Count == w.want[i], "%s: cluster count %d, want %d", w.queries[i].Name, cr.Count, w.want[i])
		results = append(results, cr)
	}
	res.seconds = time.Since(t0).Seconds()
	return res, results
}

func (w *clusterWL) layers(r *run) error {
	probe, err := r.commonProbes(w.spec, w.el, w.queries)
	if err != nil {
		return err
	}

	var connect []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		cl, err := graphpi.ConnectCluster(w.addrs...)
		if err != nil {
			return err
		}
		connect = append(connect, ms(time.Since(t0)))
		cl.Close()
	}
	r.put("cluster.connect_ms", connect)

	// The fixed cost of one job: a triangle count is nearly all handshake,
	// deal and reduce.
	var jobSetup []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := w.cl.Count(w.g, graphpi.Triangle(), clusterOpts); err != nil {
			return err
		}
		jobSetup = append(jobSetup, ms(time.Since(t0)))
	}
	r.put("cluster.job_setup_ms", jobSetup)

	// The same queries through the cluster and in-process at the same total
	// worker count, interleaved.
	local := make([]*graphpi.Plan, len(w.pats))
	for i, p := range w.pats {
		if local[i], err = graphpi.NewPlan(w.g, p, graphpi.WithWorkers(clusterNodes)); err != nil {
			return err
		}
		local[i].ExecutionTier(true)
	}
	var viaCluster, inProcess []float64
	var results []*graphpi.ClusterResult
	for i := 0; i < 2; i++ {
		res, crs := w.countAll(r)
		viaCluster, results = append(viaCluster, res.seconds), crs
		t0 := time.Now()
		for j, pl := range local {
			got := pl.CountIEP()
			r.check(got == w.want[j], "%s: local count %d, want %d", w.queries[j].Name, got, w.want[j])
		}
		inProcess = append(inProcess, time.Since(t0).Seconds())
	}
	r.put1("cluster.overhead_ratio", median(viaCluster)/median(inProcess))
	r.put1("trace.coverage", r.rec.coverage("query"))
	var tasks, steals float64
	var busy []time.Duration
	for _, cr := range results {
		tasks += float64(cr.Tasks)
		steals += float64(cr.Steals)
		if busy == nil {
			busy = make([]time.Duration, len(cr.BusyPerNode))
		}
		for n, b := range cr.BusyPerNode {
			busy[n] += b
		}
	}
	r.put1("cluster.tasks", tasks)
	r.put1("cluster.steals", steals)
	r.put1("cluster.max_busy_share", cluster.MaxBusyShare(busy))

	// Recovery: the first query with rank 1 dying three tasks into the job
	// (its unacknowledged tasks re-dealt to the survivor) against a clean run
	// on the same workers. cluster.Run is driven directly because the fault
	// injector wraps a transport.
	elapsed := func(faulty bool) (float64, error) {
		tr, err := cluster.DialTCP(w.addrs, cluster.DialOptions{})
		if err != nil {
			return 0, err
		}
		if faulty {
			tr = cluster.NewFaultyTransport(tr, 1, 3)
		}
		defer tr.Close()
		res, err := cluster.Run(probe.configs[0], probe.g, cluster.Options{WorkersPerNode: 1, UseIEP: true, Transport: tr})
		if err != nil {
			return 0, err
		}
		r.check(res.Count == w.want[0], "%s (faulty=%t): count %d, want %d", w.queries[0].Name, faulty, res.Count, w.want[0])
		return res.Elapsed.Seconds(), nil
	}
	clean, err := elapsed(false)
	if err != nil {
		return fmt.Errorf("clean cluster.Run: %w", err)
	}
	lossy, err := elapsed(true)
	if err != nil {
		return fmt.Errorf("cluster.Run with a lost rank: %w", err)
	}
	r.put1("cluster.recovery_ratio", lossy/clean)
	return nil
}
