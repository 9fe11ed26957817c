// Package graph provides the data-graph substrate of GraphPi: an immutable
// undirected graph in compressed sparse row (CSR) form with sorted adjacency
// lists, plus the structural statistics (|V|, |E|, triangle count) the
// GraphPi performance model consumes (§IV-C of the paper).
//
// The representation follows §IV-E of the paper: "GraphPi stores graphs in
// the compressed sparse row (CSR) format, that is, the neighborhood of a
// vertex is sorted and continuous in memory." All vertex identifiers are
// dense uint32 indices in [0, NumVertices).
package graph

import (
	"errors"
	"fmt"
	"sync"

	"graphpi/internal/vertexset"
)

// MaxVertices bounds the number of vertices a Graph can hold. Vertex ids are
// uint32 and one id is reserved so that id+1 arithmetic cannot overflow.
const MaxVertices = 1<<32 - 2

// Graph is an immutable undirected graph in CSR form. Self-loops and
// parallel edges are removed at construction. The zero value is an empty
// graph with no vertices.
type Graph struct {
	offsets []int64  // len NumVertices+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []uint32 // concatenated ascending neighbor lists

	name string // optional dataset label, used in reports

	// Degree-ordered relabeling (see reorder.go): the new→old id map, nil
	// for graphs not produced by Reorder or read from a reordered snapshot.
	newToOld []uint32

	// Hub adjacency bitmaps (see hubs.go); hubIdx is nil until
	// BuildHubBitmaps runs.
	hubIdx   []int32
	hubBits  []uint64
	hubWords int
	numHubs  int
	// hubFloor is the degree floor the current hub set was built with
	// (0 until BuildHubBitmaps runs); snapshots persist it so reloads
	// rebuild the same hub set even for non-default floors.
	hubFloor int

	triOnce sync.Once
	tri     int64 // cached triangle count

	maxDegOnce sync.Once
	maxDeg     int
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if g.offsets == nil {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E|, counting each undirected edge once.
func (g *Graph) NumEdges() int64 {
	if g.offsets == nil {
		return 0
	}
	return g.offsets[len(g.offsets)-1] / 2
}

// Name returns the dataset label, or "" if none was set.
func (g *Graph) Name() string { return g.name }

// SetName attaches a dataset label used by reports and experiment output.
func (g *Graph) SetName(name string) { g.name = name }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the ascending neighbor list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NumAdjSlots returns the number of directed adjacency entries (2|E|).
// Slots index the concatenated CSR adjacency array; they are the work units
// of the engine's edge-parallel root scheduling.
func (g *Graph) NumAdjSlots() int { return len(g.adj) }

// AdjSlotRange returns the half-open slot interval [start, end) holding the
// adjacency of v.
func (g *Graph) AdjSlotRange(v uint32) (start, end int) {
	return int(g.offsets[v]), int(g.offsets[v+1])
}

// AdjSlots returns the adjacency entries in the slot interval [from, to).
// The slice aliases the graph's storage and must not be modified.
func (g *Graph) AdjSlots(from, to int) []uint32 {
	return g.adj[from:to]
}

// SlotOwner returns the vertex whose adjacency contains the given slot: the
// unique v with offsets[v] <= slot < offsets[v+1].
func (g *Graph) SlotOwner(slot int) uint32 {
	s := int64(slot)
	// Binary search for the last offset <= s.
	lo, hi := 0, len(g.offsets)-1 // invariant: offsets[lo] <= s < offsets[hi]
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.offsets[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v uint32) bool {
	// Probe the smaller adjacency.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return vertexset.Contains(g.Neighbors(u), v)
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
// The scan is performed once and cached.
func (g *Graph) MaxDegree() int {
	g.maxDegOnce.Do(func() {
		for v := 0; v < g.NumVertices(); v++ {
			if d := g.Degree(uint32(v)); d > g.maxDeg {
				g.maxDeg = d
			}
		}
	})
	return g.maxDeg
}

// AvgDegree returns 2|E| / |V| (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// Triangles returns the number of triangles in the graph. The first call
// computes the count with a degree-ordered forward-adjacency intersection
// (O(E^1.5)); subsequent calls return the cached value. The paper treats the
// triangle count as a constant of the immutable data graph (§IV-C).
func (g *Graph) Triangles() int64 {
	g.triOnce.Do(func() { g.tri = g.countTriangles() })
	return g.tri
}

func (g *Graph) countTriangles() int64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	// Every edge points to the endpoint earlier in degreeDescOrder, so each
	// triangle is counted once, from its latest vertex, and a forward list
	// holds only neighbours of at least its owner's degree: O(sqrt(E)) of
	// them.
	rank := make([]uint32, n)
	for r, v := range degreeDescOrder(g) {
		rank[v] = uint32(r)
	}
	fwdOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		cnt := int64(0)
		for _, w := range g.Neighbors(uint32(v)) {
			if rank[w] < rank[v] {
				cnt++
			}
		}
		fwdOff[v+1] = fwdOff[v] + cnt
	}
	fwd := make([]uint32, fwdOff[n])
	for v := 0; v < n; v++ {
		at := fwdOff[v]
		for _, w := range g.Neighbors(uint32(v)) {
			if rank[w] < rank[v] {
				fwd[at] = w
				at++
			}
		}
	}
	// Stamp fwd(v) once; every x of fwd(w), w in fwd(v), that carries the
	// stamp closes the triangle {v, w, x}.
	stamp := make([]uint32, n)
	var total int64
	for v := 0; v < n; v++ {
		fv := fwd[fwdOff[v]:fwdOff[v+1]]
		mark := uint32(v) + 1
		for _, w := range fv {
			stamp[w] = mark
		}
		for _, w := range fv {
			for _, x := range fwd[fwdOff[w]:fwdOff[w+1]] {
				if stamp[x] == mark {
					total++
				}
			}
		}
	}
	return total
}

// Stats bundles the structural information the GraphPi performance model
// uses: |V|, |E| and the triangle count, from which the paper's p1 and p2
// probabilities derive (§IV-C).
type Stats struct {
	Vertices  int
	Edges     int64
	Triangles int64
	MaxDegree int
	AvgDegree float64
}

// Stats computes the graph's structural statistics (triangle count included,
// so the first call on a large graph is not free).
func (g *Graph) Stats() Stats {
	return Stats{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Triangles: g.Triangles(),
		MaxDegree: g.MaxDegree(),
		AvgDegree: g.AvgDegree(),
	}
}

// P1 returns the paper's p1 = 2|E| / |V|^2: the probability that an
// arbitrary vertex pair is connected.
func (s Stats) P1() float64 {
	if s.Vertices == 0 {
		return 0
	}
	v := float64(s.Vertices)
	return 2 * float64(s.Edges) / (v * v)
}

// P2 returns the paper's p2 = tri_cnt * |V| / (2|E|)^2: the probability that
// two vertices sharing a neighbor are themselves connected.
func (s Stats) P2() float64 {
	if s.Edges == 0 {
		return 0
	}
	e2 := 2 * float64(s.Edges)
	return float64(s.Triangles) * float64(s.Vertices) / (e2 * e2)
}

func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d tri=%d maxdeg=%d avgdeg=%.2f",
		s.Vertices, s.Edges, s.Triangles, s.MaxDegree, s.AvgDegree)
}

// Builder accumulates edges and produces an immutable CSR Graph.
// The zero value is ready to use. Builders must not be shared across
// goroutines without external synchronization.
type Builder struct {
	n     int
	edges []uint64 // packed min<<32 | max
}

// NewBuilder returns a Builder pre-sized for a graph with n vertices and
// capacity for m edges. n may grow automatically as edges are added.
func NewBuilder(n int, m int) *Builder {
	return &Builder{n: n, edges: make([]uint64, 0, m)}
}

// SetNumVertices raises the vertex count to at least n (isolated vertices
// are legal and appear with empty adjacency).
func (b *Builder) SetNumVertices(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored;
// duplicates are removed at Build time. The vertex count grows to cover the
// endpoints.
func (b *Builder) AddEdge(u, v uint32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if int(v)+1 > b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// Build produces the immutable CSR graph. The builder can be reused after
// Build; its recorded edges are retained.
//
// Build sorts nothing. It scatters every recorded edge {u, v}, u < v, into
// row u of an upper table, then transposes that table into a lower one:
// walking u in ascending order and appending u to row v leaves each lower
// row ascending, with a duplicate edge next to its twin, where it is dropped.
// A second transpose of the lower table writes each CSR row as its lower
// part followed by its upper part, both ascending.
func (b *Builder) Build() (*Graph, error) {
	if b.n > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds limit %d", b.n, MaxVertices)
	}
	n, m := b.n, len(b.edges)
	upOff := make([]int64, n+1) // row u of up is up[upOff[u]:upOff[u+1]]
	lowOff := make([]int64, n)  // row v of low starts at lowOff[v]
	for _, e := range b.edges {
		upOff[e>>32+1]++
		lowOff[uint32(e)]++
	}
	sum := int64(0)
	for v := 0; v < n; v++ {
		upOff[v+1] += upOff[v]
		lowOff[v], sum = sum, sum+lowOff[v]
	}
	// The upper and lower tables take the 8 bytes per recorded edge a
	// sorted copy of the packed edges would.
	tables := make([]uint32, 2*m)
	up, low := tables[:m], tables[m:]
	next := make([]int64, n)
	copy(next, upOff[:n])
	for _, e := range b.edges {
		u := e >> 32
		up[next[u]] = uint32(e)
		next[u]++
	}

	// Lower row v ends at next[v]. Once row u of up is read, upOff[u+1]
	// counts u's distinct upper neighbours, and then the CSR offsets.
	copy(next, lowOff)
	start := int64(0)
	for u := 0; u < n; u++ {
		end, distinct := upOff[u+1], int64(0)
		for _, v := range up[start:end] {
			if next[v] > lowOff[v] && low[next[v]-1] == uint32(u) {
				continue
			}
			low[next[v]] = uint32(u)
			next[v]++
			distinct++
		}
		start, upOff[u+1] = end, distinct
	}
	offsets := upOff
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v] + next[v] - lowOff[v]
	}

	// Row v's upper part is appended by the later rows in ascending order;
	// once row v is copied, next[v] turns from the end of its lower row into
	// the cursor of its upper part.
	adj := make([]uint32, offsets[n])
	for v := 0; v < n; v++ {
		at := offsets[v]
		for _, u := range low[lowOff[v]:next[v]] {
			adj[at] = u
			at++
			adj[next[u]] = uint32(v)
			next[u]++
		}
		next[v] = at
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}

// FromEdges builds a graph with exactly n vertices from an explicit edge
// list. Unlike a Builder, which grows to cover its edges (the loaders rely on
// that), it rejects a negative n and any edge with an endpoint outside
// 0..n-1, naming the edge.
func FromEdges(n int, edges [][2]uint32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for i, e := range edges {
		if uint64(e[0]) >= uint64(n) || uint64(e[1]) >= uint64(n) {
			return nil, fmt.Errorf("graph: edge %d {%d, %d} has an endpoint outside the %d vertices 0..n-1", i, e[0], e[1], n)
		}
	}
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetNumVertices(n)
	return b.Build()
}

// Validate checks the CSR invariants (monotone offsets, sorted duplicate-free
// neighborhoods, symmetry, no self-loops) in O(V + E). It is intended for
// tests and loaders, not hot paths.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	// Symmetry, in one walk of the rows: walking v in ascending order, the
	// entries w < v of v's row must name the entries above w of w's own
	// ascending row, one by one. next[w] is the first of those that no row
	// has named yet; it is set when w's row is walked, before any row that
	// names w. Each naming checks one entry, and a row whose upper entries
	// were not all named at the end lists an edge its partner lacks.
	next := make([]int64, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(uint32(v))
		if !vertexset.IsSorted(nb) {
			return fmt.Errorf("graph: adjacency of %d not strictly ascending", v)
		}
		if len(nb) > 0 && int(nb[len(nb)-1]) >= n {
			return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, nb[len(nb)-1])
		}
		i := 0
		for ; i < len(nb) && nb[i] < uint32(v); i++ {
			w := nb[i]
			at := next[w]
			if at == g.offsets[w+1] || g.adj[at] != uint32(v) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, w)
			}
			next[w]++
		}
		if i < len(nb) && nb[i] == uint32(v) {
			return fmt.Errorf("graph: self-loop at %d", v)
		}
		next[v] = g.offsets[v] + int64(i)
	}
	for v := 0; v < n; v++ {
		if at := next[v]; at != g.offsets[v+1] {
			return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, g.adj[at])
		}
	}
	return nil
}

// ErrEmptyGraph is returned by operations that need at least one vertex.
var ErrEmptyGraph = errors.New("graph: empty graph")
