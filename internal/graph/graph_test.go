package graph

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(1, 0) // duplicate in the other direction
	b.AddEdge(3, 3) // self-loop, dropped
	b.SetNumVertices(5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumVertices(); got != 5 {
		t.Errorf("NumVertices = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
	if got := g.Degree(4); got != 0 {
		t.Errorf("Degree(4) = %d, want 0", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Error("HasEdge answers wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestFromEdgesVertexCount pins FromEdges to exactly n vertices: a negative
// n and an endpoint outside 0..n-1 are errors naming the problem (the Builder
// underneath would have panicked or grown), isolated vertices are kept.
func TestFromEdgesVertexCount(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		edges   [][2]uint32
		wantErr string // "" → builds with n vertices
	}{
		{"negative", -1, nil, "negative vertex count -1"},
		{"negative with edges", -3, [][2]uint32{{0, 1}}, "negative vertex count -3"},
		{"endpoint past n", 2, [][2]uint32{{0, 1}, {0, 5}}, "edge 1 {0, 5}"},
		{"endpoint equal to n", 3, [][2]uint32{{3, 0}}, "edge 0 {3, 0}"},
		{"no vertices, one edge", 0, [][2]uint32{{0, 1}}, "edge 0 {0, 1}"},
		{"max endpoint", 4, [][2]uint32{{0, ^uint32(0)}}, "edge 0 {0, 4294967295}"},
		{"empty", 0, nil, ""},
		{"isolated vertices kept", 6, [][2]uint32{{0, 1}}, ""},
		{"self-loop in range dropped", 2, [][2]uint32{{1, 1}, {0, 1}}, ""},
	} {
		g, err := FromEdges(tc.n, tc.edges)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case g.NumVertices() != tc.n:
			t.Errorf("%s: %d vertices, want %d", tc.name, g.NumVertices(), tc.n)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Triangles() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Error("empty graph stats nonzero")
	}
	var zero Graph
	if zero.NumVertices() != 0 || zero.NumEdges() != 0 {
		t.Error("zero-value Graph not empty")
	}
}

func TestTriangleCountKnown(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int64
	}{
		{Complete(3), 1},
		{Complete(4), 4},
		{Complete(5), 10},
		{Complete(6), 20},
		{Complete(7), 35},
		{Cycle(3), 1},
		{Cycle(4), 0},
		{Cycle(6), 0},
		{Star(10), 0},
		{Path(10), 0},
	}
	for _, c := range cases {
		if got := c.g.Triangles(); got != c.want {
			t.Errorf("%s: Triangles = %d, want %d", c.g.Name(), got, c.want)
		}
	}
}

// refTriangles counts triangles by brute force over vertex triples of the
// adjacency matrix — only usable on tiny graphs.
func refTriangles(g *Graph) int64 {
	n := g.NumVertices()
	var cnt int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(uint32(a), uint32(b)) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(uint32(a), uint32(c)) && g.HasEdge(uint32(b), uint32(c)) {
					cnt++
				}
			}
		}
	}
	return cnt
}

func TestTriangleCountRandom(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := GNP(40, 0.15, seed)
		if got, want := g.Triangles(), refTriangles(g); got != want {
			t.Errorf("seed %d: Triangles = %d, want %d", seed, got, want)
		}
	}
	for seed := uint64(0); seed < 4; seed++ {
		g := BarabasiAlbert(60, 3, seed)
		if got, want := g.Triangles(), refTriangles(g); got != want {
			t.Errorf("BA seed %d: Triangles = %d, want %d", seed, got, want)
		}
	}
}

func TestStatsProbabilities(t *testing.T) {
	g := Complete(10)
	s := g.Stats()
	// K10: p1 = 2*45/100 = 0.9; p2 = 120*10/8100 ≈ 0.148
	if got := s.P1(); got < 0.89 || got > 0.91 {
		t.Errorf("P1 = %v, want 0.9", got)
	}
	if s.Triangles != 120 {
		t.Errorf("K10 triangles = %d, want 120", s.Triangles)
	}
	if s.MaxDegree != 9 || s.AvgDegree != 9 {
		t.Errorf("K10 degrees = %d/%v, want 9/9", s.MaxDegree, s.AvgDegree)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
	var empty Stats
	if empty.P1() != 0 || empty.P2() != 0 {
		t.Error("empty stats probabilities nonzero")
	}
}

func TestGenerators(t *testing.T) {
	t.Run("GNM", func(t *testing.T) {
		g := GNM(100, 300, 7)
		if g.NumVertices() != 100 || g.NumEdges() != 300 {
			t.Errorf("GNM size = %d/%d, want 100/300", g.NumVertices(), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
		// Determinism.
		g2 := GNM(100, 300, 7)
		if g2.NumEdges() != g.NumEdges() || !equalGraphs(g, g2) {
			t.Error("GNM not deterministic for equal seed")
		}
		if equalGraphs(g, GNM(100, 300, 8)) {
			t.Error("GNM identical across different seeds (suspicious)")
		}
	})
	t.Run("GNM caps at complete", func(t *testing.T) {
		g := GNM(5, 1000, 1)
		if g.NumEdges() != 10 {
			t.Errorf("GNM overfull = %d edges, want 10", g.NumEdges())
		}
	})
	t.Run("BarabasiAlbert", func(t *testing.T) {
		g := BarabasiAlbert(500, 4, 3)
		if g.NumVertices() != 500 {
			t.Errorf("BA vertices = %d", g.NumVertices())
		}
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
		// Preferential attachment must produce skew: max degree well above average.
		if float64(g.MaxDegree()) < 3*g.AvgDegree() {
			t.Errorf("BA not skewed: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
		}
		if !equalGraphs(g, BarabasiAlbert(500, 4, 3)) {
			t.Error("BA not deterministic")
		}
	})
	t.Run("BA degenerate", func(t *testing.T) {
		g := BarabasiAlbert(3, 5, 1)
		if g.NumEdges() != 3 { // falls back to K3
			t.Errorf("BA degenerate = %d edges, want 3", g.NumEdges())
		}
	})
	t.Run("RMAT", func(t *testing.T) {
		g := RMAT(10, 4000, 0.57, 0.19, 0.19, 11)
		if g.NumVertices() != 1024 {
			t.Errorf("RMAT vertices = %d, want 1024", g.NumVertices())
		}
		if g.NumEdges() < 3000 {
			t.Errorf("RMAT produced too few edges: %d", g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
		if !equalGraphs(g, RMAT(10, 4000, 0.57, 0.19, 0.19, 11)) {
			t.Error("RMAT not deterministic")
		}
	})
	t.Run("GNP", func(t *testing.T) {
		g := GNP(50, 0.2, 5)
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
	})
}

func equalGraphs(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(uint32(v)), b.Neighbors(uint32(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GNP(30, 0.3, 9)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, g2) {
		t.Error("edge-list round trip changed the graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n// third\n\n0 1\n1 2 extra-ignored\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.Triangles() != 1 {
		t.Errorf("parsed %d edges %d triangles, want 3/1", g.NumEdges(), g.Triangles())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 -1\n", "0 99999999999999999999\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := BarabasiAlbert(200, 3, 13)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, g2) {
		t.Error("binary round trip changed the graph")
	}
}

// TestBinaryRoundTripOptimized checks that the GPiCSR3 snapshot persists the
// hybrid view: dataset name, reorder map, and a rebuilt hub set of the same
// size — so Optimize cost is paid once per dataset.
func TestBinaryRoundTripOptimized(t *testing.T) {
	g := BarabasiAlbert(500, 6, 21)
	g.SetName("ba-fixture")
	og := g.Reorder()
	og.BuildHubBitmaps(1<<20, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, og); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(og, g2) {
		t.Error("round trip changed the CSR arrays")
	}
	if g2.Name() != "ba-fixture" {
		t.Errorf("name = %q, want %q", g2.Name(), "ba-fixture")
	}
	if !g2.IsReordered() {
		t.Fatal("round trip dropped the reorder map")
	}
	for v := range og.NewToOld() {
		if og.NewToOld()[v] != g2.NewToOld()[v] {
			t.Fatalf("newToOld[%d] = %d, want %d", v, g2.NewToOld()[v], og.NewToOld()[v])
		}
	}
	if og.NumHubs() == 0 {
		t.Fatal("fixture should have hubs")
	}
	if g2.NumHubs() != og.NumHubs() {
		t.Errorf("rebuilt hubs = %d, want %d", g2.NumHubs(), og.NumHubs())
	}
	for v := 0; v < og.NumVertices(); v++ {
		want, got := og.HubBitmap(uint32(v)) != nil, g2.HubBitmap(uint32(v)) != nil
		if want != got {
			t.Fatalf("hub bitmap presence differs at %d: %v vs %v", v, want, got)
		}
	}
}

// TestBinaryRoundTripEmpty pins the empty-graph fix: the format always
// carries the n+1 offsets array, so a zero-value Graph (nil offsets) and a
// built 0-vertex graph both survive write→read.
func TestBinaryRoundTripEmpty(t *testing.T) {
	built, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"zero-value": {}, "built": built} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if g2.NumVertices() != 0 || g2.NumEdges() != 0 {
			t.Errorf("%s: round trip produced |V|=%d |E|=%d", name, g2.NumVertices(), g2.NumEdges())
		}
	}
}

func TestBinaryCorruption(t *testing.T) {
	g := GNP(20, 0.3, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated payload.
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Corrupted adjacency id (out of range) — flip high bytes near the end.
	bad = append([]byte{}, data...)
	bad[len(bad)-1] = 0xFF
	bad[len(bad)-2] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt adjacency accepted")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := GNP(25, 0.25, 3)
	path := t.TempDir() + "/g.bin"
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, g2) {
		t.Error("file round trip changed the graph")
	}
	if _, err := LoadAnyFile(path + ".missing"); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// compactIDs returns a copy of g with isolated vertices removed and the
// remaining vertices renumbered densely, preserving relative order. SNAP
// edge lists frequently have sparse id spaces; compacting keeps CSR arrays
// proportional to the live vertex count.
func compactIDs(g *Graph) (*Graph, error) {
	n := g.NumVertices()
	remap := make([]uint32, n)
	next := uint32(0)
	for v := 0; v < n; v++ {
		if g.Degree(uint32(v)) > 0 {
			remap[v] = next
			next++
		}
	}
	b := NewBuilder(int(next), int(g.NumEdges()))
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u > uint32(v) {
				b.AddEdge(remap[v], remap[u])
			}
		}
	}
	b.SetNumVertices(int(next))
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	out.SetName(g.Name())
	return out, nil
}

func TestCompactIDs(t *testing.T) {
	b := NewBuilder(0, 3)
	b.AddEdge(2, 5)
	b.AddEdge(5, 9)
	b.SetNumVertices(12)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := compactIDs(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVertices() != 3 || c.NumEdges() != 2 {
		t.Errorf("compact = %d vertices %d edges, want 3/2", c.NumVertices(), c.NumEdges())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildIsCanonicalProperty(t *testing.T) {
	// Property: building from any shuffled, duplicated edge sequence yields
	// a valid graph equal to building from the canonical sequence.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		n := 2 + r.IntN(20)
		var edges [][2]uint32
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.4 {
					edges = append(edges, [2]uint32{uint32(u), uint32(v)})
				}
			}
		}
		g1, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		// Shuffle, flip directions, duplicate some.
		shuffled := append([][2]uint32{}, edges...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i := range shuffled {
			if r.IntN(2) == 0 {
				shuffled[i][0], shuffled[i][1] = shuffled[i][1], shuffled[i][0]
			}
		}
		if len(shuffled) > 0 {
			shuffled = append(shuffled, shuffled[0], shuffled[len(shuffled)/2])
		}
		g2, err := FromEdges(n, shuffled)
		if err != nil {
			return false
		}
		return equalGraphs(g1, g2) && g1.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsAscending(t *testing.T) {
	g := RMAT(8, 1500, 0.45, 0.25, 0.15, 5)
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(uint32(v))
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("vertex %d adjacency not ascending", v)
			}
		}
	}
}
