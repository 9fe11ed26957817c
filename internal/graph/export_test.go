package graph

// WithReorderMap returns a view of g that carries newToOld as its reorder
// map, as a GPiCSR3 snapshot may carry any permutation whatever its degrees.
func WithReorderMap(g *Graph, newToOld []uint32) *Graph {
	return &Graph{offsets: g.offsets, adj: g.adj, name: g.name, newToOld: newToOld}
}
