package graph_test

import (
	"bytes"
	"testing"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// TestSnapshotHubsFollowDegree: a snapshot whose reorder map is a valid
// permutation but whose ids ascend by degree reloads with the hub set of
// the graph's top-K by degree, not the id prefix, and counts as the graph
// it was relabelled from.
func TestSnapshotHubsFollowDegree(t *testing.T) {
	desc := graph.BarabasiAlbert(3000, 8, 5).Reorder()
	n := desc.NumVertices()
	// Relabel id v as n-1-v: ids now ascend by degree.
	var edges [][2]uint32
	for v := 0; v < n; v++ {
		for _, w := range desc.Neighbors(uint32(v)) {
			if uint32(v) < w {
				edges = append(edges, [2]uint32{uint32(n - 1 - v), uint32(n - 1 - int(w))})
			}
		}
	}
	plain, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	n2o := make([]uint32, n)
	for u := range n2o {
		n2o[u] = desc.NewToOld()[n-1-u]
	}
	asc := graph.WithReorderMap(plain, n2o)
	const budget = 1 << 20
	desc.BuildHubBitmaps(budget, 0)
	want := plain.BuildHubBitmaps(budget, 0) // top-K by degree; no map
	if want == 0 || asc.BuildHubBitmaps(budget, 0) != want {
		t.Fatalf("hubs: %d on the plain relabelling, %d with the map", want, asc.NumHubs())
	}

	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, asc); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.IsReordered() || loaded.NumHubs() != want {
		t.Fatalf("reloaded: reordered %v, %d hubs; want true, %d", loaded.IsReordered(), loaded.NumHubs(), want)
	}
	for v := uint32(0); v < uint32(n); v++ {
		if (loaded.HubBitmap(v) != nil) != (plain.HubBitmap(v) != nil) {
			t.Fatalf("vertex %d (degree %d): hub %v after reload, %v by degree",
				v, loaded.Degree(v), loaded.HubBitmap(v) != nil, plain.HubBitmap(v) != nil)
		}
	}

	for _, p := range []*pattern.Pattern{pattern.House(), pattern.Cycle6Tri()} {
		count := func(g *graph.Graph) int64 {
			res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Best.Bind(true, core.TierAuto).Count(g, core.RunOptions{})
		}
		if got, want := count(loaded), count(desc); got != want {
			t.Errorf("%s: %d on the reloaded snapshot, %d on the degree-ordered graph", p, got, want)
		}
	}
}
