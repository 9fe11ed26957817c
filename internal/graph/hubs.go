package graph

import (
	"graphpi/internal/vertexset"
)

// This file implements the bitmap hub-adjacency layer of the hybrid
// adjacency engine. On power-law graphs a handful of hub vertices appear in
// a large share of all intersections; materializing each hub's adjacency as
// a packed bitset turns hub∩anything from O(n+m) merge work into O(|small|)
// single-word probes (see internal/vertexset/bitmap.go for the kernels).
// Bitmaps are an acceleration alongside the CSR lists, never a replacement:
// hub vertices keep their sorted adjacency slices.

// DefaultHubDegreeFloor is the smallest degree worth a bitmap when the
// caller does not choose one: below it the scalar kernels are already cheap
// and the bitmap's O(n/64) memory would be wasted. Optimize, behind every
// public entry point, always builds hubs at this floor.
const DefaultHubDegreeFloor = 64

// DefaultHubBudget is the bitmap memory budget BuildHubBitmaps applies when
// the caller passes budget <= 0 (64 MiB — roughly 500 hub bitmaps on a
// million-vertex graph).
const DefaultHubBudget = 64 << 20

// BuildHubBitmaps precomputes packed adjacency bitsets for the top-K
// vertices by degree, with K chosen as the largest count keeping the total
// hub memory — bitmaps plus the 4n-byte vertex index — within budgetBytes
// (<= 0 → DefaultHubBudget), restricted to members with degree >=
// degreeFloor (<= 0 → DefaultHubDegreeFloor). It returns K. Calling it
// again replaces the previous hub set. On a Reorder()ed graph, or any graph
// whose degrees do not increase with the id, the hubs are exactly the id
// prefix [0, K).
//
// BuildHubBitmaps is not safe to call concurrently with readers; build the
// hub set before sharing the graph across workers.
func (g *Graph) BuildHubBitmaps(budgetBytes int64, degreeFloor int) int {
	g.hubIdx, g.hubBits, g.hubWords, g.numHubs, g.hubFloor = nil, nil, 0, 0, 0
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	if budgetBytes <= 0 {
		budgetBytes = DefaultHubBudget
	}
	if degreeFloor <= 0 {
		degreeFloor = DefaultHubDegreeFloor
	}
	g.hubFloor = degreeFloor
	words := vertexset.BitmapWords(n)
	bytesPer := int64(words) * 8
	// The per-vertex index table costs 4n bytes whenever any hub exists;
	// charge it against the budget so the caller's bound holds in total.
	budgetBytes -= int64(n) * 4
	maxK := int(budgetBytes / bytesPer)
	if maxK <= 0 {
		return 0
	}
	// Top-K by degree. Where ids already descend by degree (a Reorder()ed
	// graph) the hubs are the id prefix; elsewhere pay one O(n + maxDegree)
	// counting sort. A reorder map alone proves nothing: a snapshot may carry
	// any permutation, so check the degrees themselves.
	var order []uint32
	if !g.degreeOrdered() {
		order = degreeDescOrder(g)
	}
	hubAt := func(i int) uint32 {
		if order == nil {
			return uint32(i)
		}
		return order[i]
	}
	k := 0
	for k < n && k < maxK && g.Degree(hubAt(k)) >= degreeFloor {
		k++
	}
	if k == 0 {
		return 0
	}
	g.hubWords = words
	g.numHubs = k
	g.hubBits = make([]uint64, k*words)
	g.hubIdx = make([]int32, n)
	for i := range g.hubIdx {
		g.hubIdx[i] = -1
	}
	for i := 0; i < k; i++ {
		v := hubAt(i)
		g.hubIdx[v] = int32(i)
		bm := vertexset.Bitmap(g.hubBits[i*words : (i+1)*words])
		for _, w := range g.Neighbors(v) {
			bm.Set(w)
		}
	}
	return k
}

// NumHubs returns the number of vertices with a precomputed adjacency
// bitmap (0 when BuildHubBitmaps has not run).
func (g *Graph) NumHubs() int { return g.numHubs }

// HubBitmap returns the adjacency bitset of v, or nil when v has none. The
// bitmap aliases the graph's storage and must not be modified.
func (g *Graph) HubBitmap(v uint32) vertexset.Bitmap {
	if g.hubIdx == nil {
		return nil
	}
	i := g.hubIdx[v]
	if i < 0 {
		return nil
	}
	return vertexset.Bitmap(g.hubBits[int(i)*g.hubWords : (int(i)+1)*g.hubWords])
}

// HubMemoryBytes returns the memory held by the hub bitmaps.
func (g *Graph) HubMemoryBytes() int64 {
	return int64(len(g.hubBits))*8 + int64(len(g.hubIdx))*4
}
