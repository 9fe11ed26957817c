package graph

// The comparison-sort preparation path the linear passes replaced, kept as
// the oracle they must match byte for byte: Builder.Build, degreeDescOrder,
// Reorder, countTriangles and the hub set of BuildHubBitmaps.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"graphpi/internal/vertexset"
)

// refBuild is Builder.Build by one sort of the packed edges and a sort per
// neighbourhood.
func refBuild(b *Builder) *Graph {
	sorted := make([]uint64, len(b.edges))
	copy(sorted, b.edges)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:0]
	var prev uint64
	for i, e := range sorted {
		if i == 0 || e != prev {
			uniq = append(uniq, e)
			prev = e
		}
	}
	n := b.n
	g := &Graph{offsets: make([]int64, n+1)}
	deg := make([]int64, n)
	for _, e := range uniq {
		deg[e>>32]++
		deg[uint32(e)]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	g.adj = make([]uint32, g.offsets[n])
	fill := make([]int64, n)
	copy(fill, g.offsets[:n])
	for _, e := range uniq {
		u, v := uint32(e>>32), uint32(e)
		g.adj[fill[u]] = v
		fill[u]++
		g.adj[fill[v]] = u
		fill[v]++
	}
	for v := 0; v < n; v++ {
		nb := g.adj[g.offsets[v]:g.offsets[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return g
}

// refDegreeDescOrder sorts the ids by descending degree, ascending id on
// ties.
func refDegreeDescOrder(g *Graph) []uint32 {
	order := make([]uint32, g.NumVertices())
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}

// refReorder is Reorder by relabelling each row and sorting it.
func refReorder(g *Graph) *Graph {
	n := g.NumVertices()
	if n == 0 {
		return &Graph{name: g.name}
	}
	order := refDegreeDescOrder(g)
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
	out := &Graph{offsets: make([]int64, n+1), name: g.name, newToOld: newToOld}
	for newV, curV := range order {
		out.offsets[newV+1] = out.offsets[newV] + int64(g.Degree(curV))
	}
	out.adj = make([]uint32, out.offsets[n])
	for newV, curV := range order {
		dst := out.adj[out.offsets[newV]:out.offsets[newV+1]]
		for i, w := range g.Neighbors(curV) {
			dst[i] = cur2new[w]
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	}
	return out
}

// refCountTriangles ranks vertices by an ascending (degree, id) sort and
// merges the forward lists of every forward edge.
func refCountTriangles(g *Graph) int64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	rank := make([]uint32, n)
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	for r, v := range order {
		rank[v] = uint32(r)
	}
	fwdOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		cnt := int64(0)
		for _, w := range g.Neighbors(uint32(v)) {
			if rank[w] > rank[v] {
				cnt++
			}
		}
		fwdOff[v+1] = fwdOff[v] + cnt
	}
	fwd := make([]uint32, fwdOff[n])
	fill := make([]int64, n)
	copy(fill, fwdOff[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if rank[w] > rank[uint32(v)] {
				fwd[fill[v]] = w
				fill[v]++
			}
		}
	}
	var total int64
	for v := 0; v < n; v++ {
		fv := fwd[fwdOff[v]:fwdOff[v+1]]
		for _, w := range fv {
			fw := fwd[fwdOff[w]:fwdOff[w+1]]
			total += int64(vertexset.IntersectSize(fv, fw))
		}
	}
	return total
}

// refHubs returns the vertices BuildHubBitmaps(budgetBytes, degreeFloor)
// must give a bitmap, in hub-index order: the longest prefix of
// refDegreeDescOrder within the budget and at or above the floor.
func refHubs(g *Graph, budgetBytes int64, degreeFloor int) []uint32 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	if budgetBytes <= 0 {
		budgetBytes = DefaultHubBudget
	}
	if degreeFloor <= 0 {
		degreeFloor = DefaultHubDegreeFloor
	}
	maxK := int((budgetBytes - int64(n)*4) / (int64(vertexset.BitmapWords(n)) * 8))
	order := refDegreeDescOrder(g)
	k := 0
	for k < n && k < maxK && g.Degree(order[k]) >= degreeFloor {
		k++
	}
	return order[:k]
}

// digest hashes a graph's CSR arrays and reorder map.
func digest(g *Graph) uint64 {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, g.offsets)
	_ = binary.Write(h, binary.LittleEndian, g.adj)
	_ = binary.Write(h, binary.LittleEndian, g.newToOld)
	return h.Sum64()
}

// sameCSR reports where got and want differ in offsets, adjacency or
// reorder map ("" when they are byte-identical).
func sameCSR(got, want *Graph) string {
	switch {
	case !slices.Equal(got.offsets, want.offsets):
		return "offsets"
	case !slices.Equal(got.adj, want.adj):
		return "adjacency"
	case !slices.Equal(got.newToOld, want.newToOld):
		return "reorder map"
	}
	return ""
}

// sameHubs builds g's hub set and fails unless it is refHubs' set, in
// refHubs' index order, each bitmap holding exactly the hub's neighbours.
func sameHubs(t testing.TB, what string, g *Graph, budgetBytes int64, degreeFloor int) {
	t.Helper()
	want := refHubs(g, budgetBytes, degreeFloor)
	if k := g.BuildHubBitmaps(budgetBytes, degreeFloor); k != len(want) {
		t.Fatalf("%s: %d hubs, reference %d", what, k, len(want))
	}
	for i, v := range want {
		if g.hubIdx[v] != int32(i) {
			t.Fatalf("%s: hub %d is vertex %d in the reference, index %d here", what, i, v, g.hubIdx[v])
		}
		bm, set := g.HubBitmap(v), 0
		for w := 0; w < g.NumVertices(); w++ {
			if bm.Contains(uint32(w)) {
				set++
			}
		}
		for _, w := range g.Neighbors(v) {
			if !bm.Contains(w) {
				set = -1
			}
		}
		if set != g.Degree(v) {
			t.Fatalf("%s: bitmap of hub %d does not hold exactly its %d neighbours", what, v, g.Degree(v))
		}
	}
}

// matchesReference fails unless the linear preparation path gives the
// references' bytes on b's edges: Build, the triangle count, Reorder,
// Reorder of Reorder, and the hub sets of the plain and reordered graphs.
func matchesReference(t testing.TB, what string, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if d := sameCSR(g, refBuild(b)); d != "" {
		t.Fatalf("%s: Build %s differs from the reference", what, d)
	}
	if got, want := g.Triangles(), refCountTriangles(g); got != want {
		t.Fatalf("%s: %d triangles, reference %d", what, got, want)
	}
	if !slices.Equal(degreeDescOrder(g), refDegreeDescOrder(g)) {
		t.Fatalf("%s: degreeDescOrder differs from the reference", what)
	}
	r := g.Reorder()
	if d := sameCSR(r, refReorder(g)); d != "" {
		t.Fatalf("%s: Reorder %s differs from the reference", what, d)
	}
	if d := sameCSR(r.Reorder(), refReorder(r)); d != "" {
		t.Fatalf("%s: Reorder of Reorder %s differs from the reference", what, d)
	}
	// Floors 1 and 3 give small graphs hubs; the budget of three bitmaps
	// cuts the set short of the floor on the larger ones.
	three := int64(4*g.NumVertices() + 3*8*vertexset.BitmapWords(g.NumVertices()))
	for _, floor := range []int{1, 3} {
		for _, budget := range []int64{0, three} {
			sameHubs(t, what+" plain", g, budget, floor)
			sameHubs(t, what+" reordered", r, budget, floor)
		}
	}
	return g
}

// randomBuilder records m random edges over n vertices: self-loops,
// duplicates in both orientations and, for m small against n, isolated
// vertices.
func randomBuilder(r *rand.Rand, n, m int) *Builder {
	b := NewBuilder(0, m)
	if n == 0 {
		return b
	}
	var recorded [][2]uint32
	for i := 0; i < m; i++ {
		e := [2]uint32{uint32(r.IntN(n)), uint32(r.IntN(n))}
		if len(recorded) > 0 && r.IntN(4) == 0 {
			e = recorded[r.IntN(len(recorded))]
			if r.IntN(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
		}
		recorded = append(recorded, e)
		b.AddEdge(e[0], e[1])
	}
	b.SetNumVertices(n)
	return b
}

func TestPreparationMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(40, 1))
	for i := 0; i < 300; i++ {
		n := r.IntN(40)
		m := r.IntN(3*n + 1)
		if i%10 == 0 {
			m = r.IntN(n*n + 1) // dense: degrees near n-1, many duplicates
		}
		matchesReference(t, fmt.Sprintf("random n=%d m=%d", n, m), randomBuilder(r, n, m))
	}

	one := NewBuilder(0, 1)
	one.AddEdge(0, 0)
	star := NewBuilder(0, 16) // vertex 0 has degree n-1
	for v := uint32(1); v < 9; v++ {
		star.AddEdge(v, 0)
		star.AddEdge(0, v)
	}
	for what, b := range map[string]*Builder{"n=0": NewBuilder(0, 0), "n=1": one, "star": star} {
		matchesReference(t, what, b)
	}

	// The generators through their own Build: the recorded digests are the
	// sort-based Build's and Reorder's bytes for these graphs.
	for _, c := range []struct {
		g              *Graph
		build, reorder uint64
		triangles      int64
	}{
		{Complete(12), 0x84cb11d83fbab905, 0x31d01843709a8645, 220},
		{Cycle(9), 0x4609ed467d3f14c7, 0x798d027a1bd485bf, 0},
		{Star(17), 0xd9df25a84db73a75, 0x78bba44690947935, 0},
		{Path(11), 0x60d0df88aeda2da9, 0xe83e66164c329b48, 0},
		{GNM(300, 900, 3), 0x2afaf0a5c2e4c9ff, 0x84a16761c55ebf52, 32},
		{BarabasiAlbert(2000, 5, 7), 0x1b548d46f17a373a, 0x95b44a93de78459c, 1419},
		{RMAT(10, 6000, 0.57, 0.19, 0.19, 3), 0x6cc1e4f1f7514b58, 0xac21b742e9dee695, 24334},
		// Saturates: stops at maxAttempts short of 20000 distinct edges.
		{RMAT(8, 20000, 0.57, 0.19, 0.19, 3), 0xa7aee0bfdbfd4213, 0x610d4945d7345786, 441236},
		{RMAT(12, 30000, 0.45, 0.25, 0.15, 9), 0xd3e523ffd4eae994, 0x63ebc0b4b71ef4cf, 11602},
		{GNP(60, 0.2, 5), 0xfa8e1ed2ce0430d4, 0xfb874916df9ccc07, 297},
	} {
		g := c.g
		if got, rg := digest(g), g.Reorder(); got != c.build || digest(rg) != c.reorder || g.Triangles() != c.triangles {
			t.Errorf("%s: digests %#x / %#x, %d triangles; recorded %#x / %#x, %d",
				g.Name(), got, digest(rg), g.Triangles(), c.build, c.reorder, c.triangles)
		}
		// The same edges recorded shuffled, flipped and duplicated.
		b := NewBuilder(0, 0)
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(uint32(v)) {
				b.AddEdge(w, uint32(v))
			}
		}
		r.Shuffle(len(b.edges), func(i, j int) { b.edges[i], b.edges[j] = b.edges[j], b.edges[i] })
		b.SetNumVertices(g.NumVertices())
		if d := sameCSR(matchesReference(t, g.Name(), b), g); d != "" {
			t.Errorf("%s: rebuilding its edges changes the %s", g.Name(), d)
		}
	}
}

// TestHubsOfAscendingView: a snapshot view whose ids ascend by degree is not
// degree-ordered, so BuildHubBitmaps takes its hubs from degreeDescOrder.
func TestHubsOfAscendingView(t *testing.T) {
	desc := BarabasiAlbert(800, 4, 11).Reorder()
	n := desc.NumVertices()
	b := NewBuilder(n, int(desc.NumEdges()))
	for v := 0; v < n; v++ {
		for _, w := range desc.Neighbors(uint32(v)) {
			b.AddEdge(uint32(n-1-v), uint32(n-1)-w)
		}
	}
	plain := matchesReference(t, "ascending relabelling", b)
	n2o := make([]uint32, n)
	for u := range n2o {
		n2o[u] = desc.NewToOld()[n-1-u]
	}
	view := WithReorderMap(plain, n2o)
	if view.degreeOrdered() {
		t.Fatal("the ascending view is degree-ordered")
	}
	for _, floor := range []int{0, 8} {
		for _, budget := range []int64{0, int64(4*n + 5*8*vertexset.BitmapWords(n))} {
			sameHubs(t, "ascending view", view, budget, floor)
		}
	}
	if d := sameCSR(view.Reorder(), refReorder(view)); d != "" {
		t.Errorf("Reorder of the ascending view: %s differs from the reference", d)
	}
}

// refSymmetric is Validate's symmetry check by a binary search per slot.
func refSymmetric(g *Graph) bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if !vertexset.Contains(g.Neighbors(w), uint32(v)) {
				return false
			}
		}
	}
	return true
}

// TestValidateSymmetryMatchesReference toggles random arcs of random graphs,
// keeping every row ascending and free of self-loops, so only symmetry can
// fail: Validate must reject exactly what the reference rejects.
func TestValidateSymmetryMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(40, 2))
	rejected := 0
	for i := 0; i < 2000; i++ {
		n := 1 + r.IntN(12)
		rows := make([][]uint32, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.IntN(3) == 0 {
					rows[u] = append(rows[u], uint32(v))
					rows[v] = append(rows[v], uint32(u))
				}
			}
		}
		for k := r.IntN(3); k > 0; k-- {
			v, w := r.IntN(n), uint32(r.IntN(n))
			if int(w) == v {
				continue
			}
			if at, found := slices.BinarySearch(rows[v], w); found {
				rows[v] = slices.Delete(rows[v], at, at+1)
			} else {
				rows[v] = slices.Insert(rows[v], at, w)
			}
		}
		g := &Graph{offsets: make([]int64, n+1)}
		for v, row := range rows {
			g.adj = append(g.adj, row...)
			g.offsets[v+1] = int64(len(g.adj))
		}
		want := refSymmetric(g)
		if err := g.Validate(); (err == nil) != want {
			t.Fatalf("rows %v: Validate = %v, reference symmetric %v", rows, err, want)
		}
		if !want {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no asymmetric case generated")
	}
}
