// Distributed matching: run a pattern count on a multi-node cluster whose
// nodes live in this process, watch the master's on-demand task grants
// balance a skewed workload, then run the identical job across real TCP
// worker processes and compare.
//
// This exercises the paper's §IV-E architecture — master task packing,
// per-node queues filled by a communication thread, nodes asking for work
// when their queue runs low — first with in-process nodes (each one the
// worker code behind a net.Pipe; see DESIGN.md §3 for why sharing one machine
// preserves the load-balancing behavior the paper studies), then over TCP,
// where each rank is a separate worker serving its own replica of the graph.
// The master cuts tasks of about equal predicted work, as edge-parallel
// adjacency-slot ranges whenever the planned schedule allows it, so a hub
// vertex's work spreads across many small tasks instead of pinning one node;
// the middle section breaks the 4-node run's busy time down node by node.
//
// Run with:
//
//	go run ./examples/distributed
//
// The TCP section spawns loopback workers in-process for a self-contained
// demo; across machines the same thing is `graphpi -serve`/`-join` with a
// shared GPiCSR3 snapshot (see the README's distributed quickstart).
package main

import (
	"fmt"
	"log"
	"time"

	"graphpi"
)

func main() {
	g, err := graphpi.LoadDataset("Orkut-S", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	p := graphpi.House()
	fmt.Printf("graph: %s — %s\npattern: %s\n\n", g.Name(), g.StatsString(), p)

	var (
		base float64
		last *graphpi.ClusterResult
	)
	for _, nodes := range []int{1, 2, 4} {
		res, err := graphpi.ClusterCount(g, p, graphpi.ClusterOptions{
			Nodes:          nodes,
			WorkersPerNode: 2,
			UseIEP:         true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if last != nil && res.Count != last.Count {
			log.Fatalf("count mismatch: %d nodes %d != %d", nodes, res.Count, last.Count)
		}
		last = res
		secs := res.Elapsed.Seconds()
		if nodes == 1 {
			base = secs
		}
		fmt.Printf("nodes=%d  count=%d  time=%.3fs  speedup=%.2fx\n",
			nodes, res.Count, secs, base/secs)
		fmt.Printf("         tasks per node: %v  max busy share: %.2f (ideal %.2f)\n",
			res.TasksPerNode, res.MaxBusyShare(), 1/float64(nodes))
	}

	// The 4-node run node by node: each node's share of the total busy
	// time, which on-demand grants of equal-work tasks keep near 1/4.
	fmt.Printf("\nper-node load (4 nodes, %d tasks):\n", last.Tasks)
	var total time.Duration
	for _, b := range last.BusyPerNode {
		total += b
	}
	for i, b := range last.BusyPerNode {
		fmt.Printf("  node %d: %4d tasks  busy %v  share %.2f\n",
			i, last.TasksPerNode[i], b.Round(time.Millisecond), float64(b)/float64(total))
	}

	// The same job again, but with the ranks as real TCP worker processes
	// (loopback here): identical counts, with the same frames now crossing
	// sockets instead of in-process pipes.
	fmt.Println("\nin-process vs TCP ranks (2 nodes x 2 workers):")
	localRes, err := graphpi.ClusterCount(g, p, graphpi.ClusterOptions{
		Nodes: 2, WorkersPerNode: 2, UseIEP: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := graphpi.ServeCluster("127.0.0.1:0", g, 0)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	cl, err := graphpi.ConnectCluster(addrs...)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	tcpRes, err := cl.Count(g, p, graphpi.ClusterOptions{WorkersPerNode: 2, UseIEP: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  in-process  count=%d  time=%.3fs  tasks per node: %v\n",
		localRes.Count, localRes.Elapsed.Seconds(), localRes.TasksPerNode)
	fmt.Printf("  tcp         count=%d  time=%.3fs  tasks per node: %v  workers=%v\n",
		tcpRes.Count, tcpRes.Elapsed.Seconds(), tcpRes.TasksPerNode, addrs)
	if localRes.Count != tcpRes.Count {
		log.Fatalf("transport mismatch: in-process %d != tcp %d", localRes.Count, tcpRes.Count)
	}
	fmt.Printf("  counts bit-identical; TCP overhead %.1f%%\n",
		100*(tcpRes.Elapsed.Seconds()/localRes.Elapsed.Seconds()-1))

	fmt.Println("\nNote: in-process nodes and loopback workers share one " +
		"machine; speedups are meaningful up to the physical core count, " +
		"and short jobs flatten early — the same effect as the paper's " +
		"Figure 12.")
}
