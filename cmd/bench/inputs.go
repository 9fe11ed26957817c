package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"graphpi"
	"graphpi/internal/auxgraph"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// graphSpec names a generated graph. The sizes below are the ones the issue
// timed on a 2-core box, except baHot (README "Final parameters").
type graphSpec struct {
	Kind string // "rmat" or "ba"
	N    int    // ba: vertices; rmat: scale (2^N vertices)
	M    int    // ba: edges per new vertex; rmat: edge count
}

var (
	rmat15 = graphSpec{"rmat", 15, 400000}
	ba30k  = graphSpec{"ba", 30000, 8}
	baHot  = graphSpec{"ba", 1000, 4}
	baTiny = graphSpec{"ba", 300, 4}
)

func (s graphSpec) generate() *graph.Graph {
	if s.Kind == "rmat" {
		return graph.RMAT(s.N, s.M, 0.57, 0.19, 0.19, genSeed)
	}
	return graph.BarabasiAlbert(s.N, s.M, genSeed)
}

// edgeList is what the program under test is handed: an undirected edge list
// over vertex ids 0..n-1. base[v] is the id vertex v had in the generated
// graph, so enumerated embeddings can be folded into a checksum that does not
// depend on the relabelling.
type edgeList struct {
	n     int
	edges [][2]uint32
	base  []uint32
}

func edgesOf(g *graph.Graph) edgeList {
	n := g.NumVertices()
	el := edgeList{n: n, edges: make([][2]uint32, 0, g.NumEdges()), base: make([]uint32, n)}
	for v := 0; v < n; v++ {
		el.base[v] = uint32(v)
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w {
				el.edges = append(el.edges, [2]uint32{uint32(v), w})
			}
		}
	}
	return el
}

// relabel renames the vertices by a seeded permutation. The graph the
// program sees differs with every seed (ids, degree-tie order after Reorder,
// memory layout) while counts and the amount of work stay put, so run-to-run
// spread measures the machine and not the generator's variance.
func (e edgeList) relabel(seed uint64) edgeList {
	perm := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)).Perm(e.n)
	out := edgeList{n: e.n, edges: make([][2]uint32, len(e.edges)), base: make([]uint32, e.n)}
	for old, nu := range perm {
		out.base[nu] = e.base[old]
	}
	for i, ed := range e.edges {
		out.edges[i] = [2]uint32{uint32(perm[ed[0]]), uint32(perm[ed[1]])}
	}
	return out
}

// makeEdges produces a workload's input graph: generated from genSeed and
// relabelled from seed, or loaded from an edge-list file (-graph).
func (r *run) makeEdges(s graphSpec) (edgeList, error) {
	if r.graphFile != "" {
		g, err := graph.LoadEdgeListFile(r.graphFile)
		if err != nil {
			return edgeList{}, err
		}
		return edgesOf(g), nil
	}
	return edgesOf(s.generate()).relabel(r.seed), nil
}

// facade builds the optimized view (degree reorder + hub bitmaps) the way a
// user of the library would.
func (e edgeList) facade() (*graphpi.Graph, error) {
	g, err := graphpi.NewGraph(e.n, e.edges)
	if err != nil {
		return nil, err
	}
	return g.Optimize(0), nil
}

// graphTimings are the internal/graph layer probes.
type graphTimings struct {
	build, reorder, hubs time.Duration
}

// internal builds the same optimized view from internal/graph directly,
// timing each step. Probes that need what the facade hides (hub bitmaps,
// Stats, cluster.Run) use this twin; it mirrors Graph.Optimize(0).
func (e edgeList) internal() (*graph.Graph, graphTimings, error) {
	var t graphTimings
	t0 := time.Now()
	g, err := graph.FromEdges(e.n, e.edges)
	if err != nil {
		return nil, t, err
	}
	t.build = time.Since(t0)
	t0 = time.Now()
	og := g.Reorder()
	t.reorder = time.Since(t0)
	t0 = time.Now()
	split := auxgraph.PlanBudget(0, og.NumVertices(), runtime.GOMAXPROCS(0), 1)
	og.BuildHubBitmaps(split.HubBytes, 0)
	t.hubs = time.Since(t0)
	return og, t, nil
}

// query is one pattern of a workload's list. Spec is what both
// graphpi.ParsePattern and pattern.Parse accept, so the facade and the
// internal probes see the same pattern.
type query struct {
	Name string
	Spec string
}

// GraphPi's baseline_test.cpp patterns (SNIPPETS 1), as n:matrix specs.
var referencePatterns = []query{
	{"ref-p1", "4:0111101011011010"},
	{"ref-p2", "6:011110101101110011110000101000011000"},
	{"ref-p3", "6:011111101111110110111000111000110000"},
	{"ref-p4", "6:011110101011110010100001111000010100"},
	{"ref-p5", "7:0111111101111111011001110110111100011010001100000"},
}

// enumerateMotifs lists every connected n-vertex pattern up to isomorphism,
// in pattern.AllConnected's order, as adjacency strings.
func enumerateMotifs(n int) []string {
	var out []string
	for _, p := range pattern.AllConnected(n) {
		out = append(out, p.AdjacencyString())
	}
	return out
}

// motifQueries returns the n-vertex motifs as queries, from golden.json's
// list (TestGoldenMotifs checks it against enumerateMotifs), or enumerated
// when the file has none yet.
func motifQueries(n int) []query {
	adjs := loadGolden().Motifs[n]
	if len(adjs) == 0 {
		adjs = enumerateMotifs(n)
	}
	var out []query
	for i, adj := range adjs {
		out = append(out, query{Name: fmt.Sprintf("motif%d-%d", n, i+1), Spec: fmt.Sprintf("%d:%s", n, adj)})
	}
	return out
}

func (q query) facade() (*graphpi.Pattern, error) { return graphpi.ParsePattern(q.Spec) }
func (q query) internal() (*pattern.Pattern, error) {
	return pattern.Parse(q.Spec)
}
