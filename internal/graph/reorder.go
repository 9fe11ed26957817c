package graph

// This file implements the degree-ordered relabeling pass of the hybrid
// adjacency engine. Relabeling vertices so that ids descend by degree has two
// compounding effects on the GraphPi execution engine:
//
//   - restriction windows (vertexset.Below/Above) cut candidate sets much
//     earlier: the high-degree vertices that dominate candidate lists now
//     cluster at the low end of the id space, so an id(x) < id(y) restriction
//     prunes the bulk of a hub adjacency in one binary search;
//   - hub detection becomes a plain id threshold: the top-K vertices by
//     degree are exactly ids [0, K), which is what the bitmap layer (hubs.go)
//     exploits.
//
// Embedding counts are invariant under relabeling (restrictions only need
// *some* consistent total order), but reported embeddings must use original
// ids, so the reordered graph carries the new→old map and the engine
// translates at the leaves.

// Reorder returns a copy of the graph relabeled so vertex ids descend by
// degree (new id 0 has maximum degree; ties break by ascending current id).
// The returned graph remembers the id map: NewToOld returns it and the
// execution engine uses it to report original ids from Enumerate.
// Reordering a graph that is itself reordered composes the maps, so NewToOld
// always reaches the ids of the graph the chain started from.
func (g *Graph) Reorder() *Graph {
	n := g.NumVertices()
	if n == 0 {
		return &Graph{name: g.name}
	}
	order := degreeDescOrder(g) // new id → current id
	// cur2new relabels this graph's ids; the stored map composes with any
	// previous reordering so NewToOld always reaches the pre-Reorder ids of
	// the ORIGINAL graph, keeping Enumerate's original-id contract intact
	// even for Reorder-of-Reorder.
	cur2new := make([]uint32, n)
	for newV, curV := range order {
		cur2new[curV] = uint32(newV)
	}
	newToOld := order
	if g.newToOld != nil {
		newToOld = make([]uint32, n)
		for newV, curV := range order {
			newToOld[newV] = g.newToOld[curV]
		}
	}
	out := &Graph{
		offsets:  make([]int64, n+1),
		name:     g.name,
		newToOld: newToOld,
	}
	for newV, curV := range order {
		out.offsets[newV+1] = out.offsets[newV] + int64(g.Degree(curV))
	}
	out.adj = make([]uint32, out.offsets[n])
	// Walking the new ids in ascending order and appending each to its
	// neighbours' rows leaves every row ascending: a transpose, no sort.
	next := make([]int64, n)
	copy(next, out.offsets[:n])
	for newV, curV := range order {
		for _, w := range g.Neighbors(curV) {
			row := cur2new[w]
			out.adj[next[row]] = uint32(newV)
			next[row]++
		}
	}
	return out
}

// degreeDescOrder returns the vertex ids sorted by descending degree with
// ascending-id tie-break — the one ordering shared by Reorder,
// BuildHubBitmaps and the triangle count, so "hubs are the id prefix of a
// reordered graph" holds by construction. It is a counting sort: each
// degree gets a bucket, and the ids enter their buckets in ascending order.
func degreeDescOrder(g *Graph) []uint32 {
	n, maxDeg := g.NumVertices(), g.MaxDegree()
	// at[maxDeg-d] is where the next vertex of degree d goes.
	at := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		at[maxDeg-g.Degree(uint32(v))+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	order := make([]uint32, n)
	for v := 0; v < n; v++ {
		b := maxDeg - g.Degree(uint32(v))
		order[at[b]] = uint32(v)
		at[b]++
	}
	return order
}

// IsReordered reports whether this graph was produced by Reorder.
func (g *Graph) IsReordered() bool { return g.newToOld != nil }

// NewToOld returns the new→old id map of a reordered graph (nil otherwise).
// The returned slice is the graph's own storage; do not modify.
func (g *Graph) NewToOld() []uint32 { return g.newToOld }

// Optimize returns the hybrid-adjacency view of g: g reordered (Reorder)
// with hub bitmaps built under hubBudgetBytes at DefaultHubDegreeFloor. It
// is the one routine behind the facade's Graph.Optimize and the service's
// POST /graphs.
//
// A graph that is already a degree-ordered view, such as a reloaded
// snapshot of one, keeps its vertex order: Reorder would give the identity
// permutation there, so the view shares g's adjacency and id map instead
// of relabelling them again. With hubBudgetBytes <= 0 it also keeps g's hub
// set when g has one. g itself is never modified, so it may be shared.
func (g *Graph) Optimize(hubBudgetBytes int64) *Graph {
	if !g.IsReordered() || !g.degreeOrdered() {
		og := g.Reorder()
		og.BuildHubBitmaps(hubBudgetBytes, 0)
		return og
	}
	og := &Graph{offsets: g.offsets, adj: g.adj, name: g.name, newToOld: g.newToOld}
	if hubBudgetBytes <= 0 && g.numHubs > 0 {
		og.hubIdx, og.hubBits, og.hubWords, og.numHubs, og.hubFloor = g.hubIdx, g.hubBits, g.hubWords, g.numHubs, g.hubFloor
	} else {
		og.BuildHubBitmaps(hubBudgetBytes, 0)
	}
	return og
}

// degreeOrdered reports whether degrees do not increase with the vertex id,
// the case where degreeDescOrder is the identity.
func (g *Graph) degreeOrdered() bool {
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > g.Degree(uint32(v-1)) {
			return false
		}
	}
	return true
}
