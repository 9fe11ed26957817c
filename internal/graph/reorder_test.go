package graph

import (
	"bytes"
	"slices"
	"testing"

	"graphpi/internal/vertexset"
)

func TestReorderDegreeDescending(t *testing.T) {
	g := BarabasiAlbert(500, 3, 7)
	rg := g.Reorder()
	if err := rg.Validate(); err != nil {
		t.Fatalf("reordered graph invalid: %v", err)
	}
	if !rg.IsReordered() || g.IsReordered() {
		t.Fatalf("IsReordered flags wrong: rg=%v g=%v", rg.IsReordered(), g.IsReordered())
	}
	if rg.NumVertices() != g.NumVertices() || rg.NumEdges() != g.NumEdges() {
		t.Fatalf("size changed: %d/%d vs %d/%d",
			rg.NumVertices(), rg.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 1; v < rg.NumVertices(); v++ {
		if rg.Degree(uint32(v-1)) < rg.Degree(uint32(v)) {
			t.Fatalf("degrees not descending at %d: %d < %d",
				v, rg.Degree(uint32(v-1)), rg.Degree(uint32(v)))
		}
	}
}

func TestReorderMapsAreInverse(t *testing.T) {
	g := GNM(300, 900, 3)
	rg := g.Reorder()
	n2o := rg.NewToOld()
	if len(n2o) != g.NumVertices() {
		t.Fatalf("map size %d, want %d", len(n2o), g.NumVertices())
	}
	o2n := invertMap(t, n2o)
	for v := range n2o {
		if o2n[n2o[v]] != uint32(v) {
			t.Fatalf("maps not inverse at new id %d", v)
		}
	}
	if g.NewToOld() != nil {
		t.Fatal("non-reordered graph should have a nil map")
	}
}

// invertMap returns the old→new inverse of a new→old id map, failing the
// test unless the map is a permutation.
func invertMap(t *testing.T, n2o []uint32) []uint32 {
	t.Helper()
	o2n := make([]uint32, len(n2o))
	seen := make([]bool, len(n2o))
	for newV, oldV := range n2o {
		if int(oldV) >= len(n2o) || seen[oldV] {
			t.Fatalf("id map is not a permutation at %d", newV)
		}
		seen[oldV] = true
		o2n[oldV] = uint32(newV)
	}
	return o2n
}

func TestReorderPreservesEdges(t *testing.T) {
	g := GNM(200, 600, 5)
	rg := g.Reorder()
	o2n := invertMap(t, rg.NewToOld())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if !rg.HasEdge(o2n[v], o2n[w]) {
				t.Fatalf("edge {%d,%d} lost in reorder", v, w)
			}
		}
	}
}

func TestReorderEmpty(t *testing.T) {
	g := &Graph{}
	rg := g.Reorder()
	if rg.NumVertices() != 0 {
		t.Fatalf("empty reorder has %d vertices", rg.NumVertices())
	}
}

func TestBuildHubBitmaps(t *testing.T) {
	// A star graph plus noise guarantees one very high degree vertex.
	g := BarabasiAlbert(2000, 4, 11).Reorder()
	k := g.BuildHubBitmaps(1<<20, 0)
	if k < 1 {
		t.Fatalf("expected at least one hub, got %d", k)
	}
	if g.NumHubs() != k {
		t.Fatalf("NumHubs = %d, want %d", g.NumHubs(), k)
	}
	// On a reordered graph the hubs are the id prefix [0, k).
	for v := 0; v < g.NumVertices(); v++ {
		bm := g.HubBitmap(uint32(v))
		if (v < k) != (bm != nil) {
			t.Fatalf("hub prefix violated at %d (k=%d, bm=%v)", v, k, bm != nil)
		}
		if bm == nil {
			continue
		}
		// Bitmap must agree exactly with the adjacency list.
		nb := g.Neighbors(uint32(v))
		if got := vertexset.IntersectSizeBitmap(nb, bm); got != len(nb) {
			t.Fatalf("hub %d bitmap misses %d neighbors", v, len(nb)-got)
		}
		pop := 0
		for _, w := range bm {
			for ; w != 0; w &= w - 1 {
				pop++
			}
		}
		if pop != len(nb) {
			t.Fatalf("hub %d bitmap population %d != degree %d", v, pop, len(nb))
		}
	}
	// Degree floor: no hub below the default degree floor.
	for v := 0; v < k; v++ {
		if g.Degree(uint32(v)) < DefaultHubDegreeFloor {
			t.Fatalf("hub %d has degree %d < %d", v, g.Degree(uint32(v)), DefaultHubDegreeFloor)
		}
	}
}

func TestBuildHubBitmapsBudget(t *testing.T) {
	g := BarabasiAlbert(1000, 8, 13)
	words := vertexset.BitmapWords(g.NumVertices())
	// Budget covers the mandatory 4n index plus exactly 3 bitmaps.
	budget := int64(g.NumVertices())*4 + int64(words)*8*3
	k := g.BuildHubBitmaps(budget, 0)
	if k > 3 {
		t.Fatalf("budget allows 3 bitmaps, got %d", k)
	}
	if k == 0 {
		t.Fatal("budget for 3 bitmaps produced none")
	}
	if got := g.HubMemoryBytes(); got > budget {
		t.Fatalf("hub memory %d exceeds budget %d", got, budget)
	}
	// Budget too small for the index plus one bitmap → no hubs.
	if k := g.BuildHubBitmaps(int64(g.NumVertices())*4+int64(words)*8-1, 0); k != 0 {
		t.Fatalf("sub-bitmap budget produced %d hubs", k)
	}
	if g.HubBitmap(0) != nil {
		t.Fatal("hub bitmaps should be cleared after rebuild with tiny budget")
	}
}

func TestSlotOwner(t *testing.T) {
	g := BarabasiAlbert(300, 2, 17)
	for v := 0; v < g.NumVertices(); v++ {
		s, e := g.AdjSlotRange(uint32(v))
		for slot := s; slot < e; slot++ {
			if got := g.SlotOwner(slot); got != uint32(v) {
				t.Fatalf("SlotOwner(%d) = %d, want %d", slot, got, v)
			}
		}
		if got := g.AdjSlots(s, e); len(got) != g.Degree(uint32(v)) {
			t.Fatalf("AdjSlots(%d,%d) len %d != degree %d", s, e, len(got), g.Degree(uint32(v)))
		}
	}
	if g.NumAdjSlots() != int(2*g.NumEdges()) {
		t.Fatalf("NumAdjSlots = %d, want %d", g.NumAdjSlots(), 2*g.NumEdges())
	}
}

func TestSlotOwnerWithIsolatedVertices(t *testing.T) {
	// Vertices 1 and 3 isolated: zero-length slot ranges must never own.
	g, err := FromEdges(5, [][2]uint32{{0, 2}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < g.NumAdjSlots(); slot++ {
		v := g.SlotOwner(slot)
		s, e := g.AdjSlotRange(v)
		if slot < s || slot >= e {
			t.Fatalf("SlotOwner(%d) = %d with range [%d,%d)", slot, v, s, e)
		}
	}
}

// TestReorderComposesMaps pins the Reorder-of-Reorder contract: NewToOld must
// always reach the ids of the graph at the root of the chain.
func TestReorderComposesMaps(t *testing.T) {
	g := BarabasiAlbert(300, 3, 19)
	rr := g.Reorder().Reorder()
	n2o := rr.NewToOld()
	invertMap(t, n2o)
	for v := 0; v < rr.NumVertices(); v++ {
		// Every neighbor relation must hold in ORIGINAL ids.
		for _, w := range rr.Neighbors(uint32(v)) {
			if !g.HasEdge(n2o[v], n2o[w]) {
				t.Fatalf("edge {%d,%d} (orig ids) missing after double reorder", n2o[v], n2o[w])
			}
		}
	}
}

// TestOptimizeReloadedView: Optimize of a reloaded optimized snapshot keeps
// the snapshot's vertex order (shared adjacency and id map, no second
// sort), keeps its hub set at budget 0, equals a fresh Reorder of it, and
// never touches the receiver, even when it rebuilds hubs.
func TestOptimizeReloadedView(t *testing.T) {
	g := BarabasiAlbert(600, 5, 23)
	// A budget of three bitmaps, below the six vertices above the floor.
	og := g.Optimize(int64(4*600 + 3*8*vertexset.BitmapWords(600)))
	if !og.IsReordered() || og.NumHubs() == 0 || g.IsReordered() || g.NumHubs() != 0 {
		t.Fatalf("Optimize of a plain graph: reordered %v, %d hubs; receiver reordered %v, %d hubs",
			og.IsReordered(), og.NumHubs(), g.IsReordered(), g.NumHubs())
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, og); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hubs, hubBytes := loaded.NumHubs(), loaded.HubMemoryBytes()

	kept := loaded.Optimize(0)
	if &kept.adj[0] != &loaded.adj[0] || &kept.NewToOld()[0] != &loaded.NewToOld()[0] {
		t.Error("Optimize(0) of a degree-ordered view copied its adjacency or id map")
	}
	if re := loaded.Reorder(); !equalGraphs(kept, re) || !slices.Equal(kept.NewToOld(), re.NewToOld()) {
		t.Error("Optimize(0) of a degree-ordered view differs from its Reorder")
	}
	if kept.NumHubs() != hubs || kept.HubMemoryBytes() != hubBytes {
		t.Errorf("Optimize(0) rebuilt the hub set: %d hubs (%d B), snapshot %d (%d B)",
			kept.NumHubs(), kept.HubMemoryBytes(), hubs, hubBytes)
	}

	rebuilt := loaded.Optimize(DefaultHubBudget)
	if rebuilt.NumHubs() <= hubs {
		t.Errorf("Optimize(%d) built %d hubs, want more than the snapshot's %d", DefaultHubBudget, rebuilt.NumHubs(), hubs)
	}
	if loaded.NumHubs() != hubs || loaded.HubMemoryBytes() != hubBytes {
		t.Errorf("Optimize modified its receiver: %d hubs (%d B), want %d (%d B)",
			loaded.NumHubs(), loaded.HubMemoryBytes(), hubs, hubBytes)
	}
}
