package pattern

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"graphpi/internal/perm"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, ""); err == nil {
		t.Error("0 vertices accepted")
	}
	if _, err := New(MaxVertices+1, nil, ""); err == nil {
		t.Error("too many vertices accepted")
	}
	if _, err := New(3, [][2]int{{0, 0}}, ""); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New(3, [][2]int{{0, 3}}, ""); err == nil {
		t.Error("out-of-range edge accepted")
	}
	p, err := New(3, [][2]int{{0, 1}, {1, 0}, {0, 1}}, "dup")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 1 {
		t.Errorf("duplicate edges counted: %d", p.NumEdges())
	}
}

func TestBasicAccessors(t *testing.T) {
	h := House()
	if h.N() != 5 || h.NumEdges() != 6 {
		t.Errorf("House = %dv %de, want 5v 6e", h.N(), h.NumEdges())
	}
	if !h.HasEdge(0, 1) || h.HasEdge(3, 4) {
		t.Error("House edges wrong")
	}
	if h.Degree(0) != 3 || h.Degree(4) != 2 {
		t.Errorf("House degrees: d(0)=%d d(4)=%d", h.Degree(0), h.Degree(4))
	}
	if len(h.Edges()) != 6 {
		t.Errorf("Edges() length %d", len(h.Edges()))
	}
	if h.String() != "House(5v,6e)" {
		t.Errorf("String = %q", h.String())
	}
}

func TestParseAdjacency(t *testing.T) {
	tri, err := ParseAdjacency(3, "011101110", "tri")
	if err != nil {
		t.Fatal(err)
	}
	if !tri.Isomorphic(Triangle()) {
		t.Error("parsed triangle not isomorphic to Triangle()")
	}
	// Round trip.
	h := House()
	h2, err := ParseAdjacency(5, h.AdjacencyString(), "")
	if err != nil {
		t.Fatal(err)
	}
	if h2.AdjacencyString() != h.AdjacencyString() {
		t.Error("adjacency round trip mismatch")
	}
	for _, bad := range []struct {
		n int
		s string
	}{
		{3, "01110111"},   // wrong length
		{2, "0110"},       // asymmetric? actually symmetric; use diagonal case below
		{2, "1001"},       // nonzero diagonal
		{2, "0100"},       // asymmetric
		{2, "01x0"},       // bad char
		{3, "011101110x"}, // wrong length again
	} {
		if _, err := ParseAdjacency(bad.n, bad.s, ""); err == nil && bad.s != "0110" {
			t.Errorf("ParseAdjacency(%d, %q) accepted", bad.n, bad.s)
		}
	}
	// Sizes whose square wraps to 0 must not reach the matrix indexing.
	for _, spec := range []string{"4294967296:", "-4294967296:", "0:", "-1:", "13:"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// FuzzParsePattern: for any spec string Parse never panics, and a pattern
// it accepts has a supported size and survives a round trip through its
// own "n:matrix" spelling with the same adjacency and canonical key.
// CanonicalKey walks all n! relabelings, so it is compared only up to
// fuzzCanonicalMax vertices; above that the equal adjacency strings already
// imply equal keys.
const fuzzCanonicalMax = 7

func FuzzParsePattern(f *testing.F) {
	for _, name := range []string{"triangle", "rectangle", "pentagon", "house", "cycle6tri", "k4", "k7"} {
		f.Add(name)
	}
	for _, p := range EvaluationPatterns() {
		f.Add(fmt.Sprintf("%d:%s", p.N(), p.AdjacencyString()))
	}
	for _, spec := range []string{"4294967296:", "-1:", "0:", "3: 011101110 ", "2:0110"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if p.N() < 1 || p.N() > MaxVertices {
			t.Fatalf("Parse(%q) gave %d vertices, outside [1,%d]", spec, p.N(), MaxVertices)
		}
		again := fmt.Sprintf("%d:%s", p.N(), p.AdjacencyString())
		q, err := Parse(again)
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", again, spec, err)
		}
		if q.AdjacencyString() != p.AdjacencyString() {
			t.Fatalf("re-parsing %q (from %q) changed the adjacency", again, spec)
		}
		if p.N() <= fuzzCanonicalMax && q.CanonicalKey() != p.CanonicalKey() {
			t.Fatalf("re-parsing %q (from %q) changed the canonical key", again, spec)
		}
	})
}

func TestConnectivity(t *testing.T) {
	if !House().Connected() || !Pentagon().Connected() || !Cycle6Tri().Connected() {
		t.Error("connected pattern reported disconnected")
	}
	disc := MustNew(4, [][2]int{{0, 1}, {2, 3}}, "disc")
	if disc.Connected() {
		t.Error("disconnected pattern reported connected")
	}
	single := MustNew(1, nil, "v")
	if !single.Connected() {
		t.Error("single vertex not connected")
	}
}

func TestPrefixConnected(t *testing.T) {
	h := House() // square 0-2-3-1 + roof 0-1-4
	if !h.PrefixConnected([]int{0, 1, 2, 3, 4}) {
		t.Error("natural order should be prefix-connected")
	}
	// 2 and 4 are not adjacent, and {2,4} ∪ {} has no edge to start from.
	if h.PrefixConnected([]int{2, 4, 0, 1, 3}) {
		t.Error("order starting 2,4 should fail prefix connectivity")
	}
	// Paper's Phase-1 example: searching C, D then E fails for the House
	// because E is adjacent to neither C nor D. With our labels C,D = 2,3
	// and E = 4.
	if h.PrefixConnected([]int{2, 3, 4, 0, 1}) {
		t.Error("paper's inefficient schedule C,D,E… not eliminated")
	}
}

func TestMaxIndependentSetSize(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want int
	}{
		{Triangle(), 1},
		{Rectangle(), 2},
		{Pentagon(), 2},
		{House(), 2},     // paper: k = 2 for the House
		{Cycle6Tri(), 3}, // paper: k = 3 (D, E, F)
		{P4(), 3},        // K2,3: one side
		{Prism(), 2},
		{Clique(7), 1},
		{CliqueMinus(7), 2},
		{StarN(6), 5},
	}
	for _, c := range cases {
		if got := c.p.MaxIndependentSetSize(); got != c.want {
			t.Errorf("%s: k = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want int
	}{
		{Triangle(), 6},
		{Rectangle(), 8}, // paper Figure 4(c): 8 permutations
		{Pentagon(), 10},
		{House(), 2},
		{Cycle6Tri(), 2},
		{P4(), 12}, // K2,3: 2! × 3!
		{Prism(), 12},
		{Clique(5), 120},
		{CliqueMinus(5), 12}, // 3! × 2
		{StarN(5), 24},
		{PathN(4), 2},
	}
	for _, c := range cases {
		auts := c.p.Automorphisms()
		if len(auts) != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.p, len(auts), c.want)
		}
		if !isGroup(auts) {
			t.Errorf("%s: automorphisms do not form a group", c.p)
		}
	}
}

// isGroup reports whether auts, distinct permutations as Automorphisms
// returns them, form a group: the group they generate is no larger.
func isGroup(auts []perm.Perm) bool { return len(perm.Closure(auts)) == len(auts) }

func TestAutomorphismsAreAutomorphisms(t *testing.T) {
	// Property: for random patterns, every returned permutation preserves
	// edges and non-edges, and the identity is always included.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		n := 2 + r.IntN(5)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		p := MustNew(n, edges, "rand")
		auts := p.Automorphisms()
		idFound := false
		for _, a := range auts {
			if a.IsIdentity() {
				idFound = true
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if p.HasEdge(u, v) != p.HasEdge(int(a[u]), int(a[v])) {
						return false
					}
				}
			}
		}
		return idFound && isGroup(auts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRelabel(t *testing.T) {
	h := House()
	order := []int{4, 3, 2, 1, 0}
	r := h.Relabel(order)
	if !r.Isomorphic(h) {
		t.Error("relabeled pattern not isomorphic")
	}
	for u := 0; u < h.N(); u++ {
		for v := 0; v < h.N(); v++ {
			if h.HasEdge(u, v) != r.HasEdge(order[u], order[v]) {
				t.Fatalf("relabel broke edge (%d,%d)", u, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Relabel with wrong length did not panic")
		}
	}()
	h.Relabel([]int{0, 1})
}

func TestIsomorphic(t *testing.T) {
	if !Pentagon().Isomorphic(CycleN(5)) {
		t.Error("Pentagon !~ C5")
	}
	if Pentagon().Isomorphic(House()) {
		t.Error("Pentagon ~ House")
	}
	if Triangle().Isomorphic(PathN(3)) {
		t.Error("Triangle ~ P3 (different edge count)")
	}
	if StarN(4).Isomorphic(PathN(4)) {
		t.Error("star ~ path (different degree multiset)")
	}
	// Same degree sequence, different structure: C6 vs two triangles is
	// disconnected, use C6 vs prism? Prism has 9 edges. Use K3,3 vs prism:
	// both 3-regular on 6 vertices, not isomorphic.
	if CompleteBipartite(3, 3).Isomorphic(Prism()) {
		t.Error("K3,3 ~ Prism")
	}
}

func TestCanonicalKey(t *testing.T) {
	a := Pentagon()
	b := MustNew(5, [][2]int{{2, 4}, {4, 1}, {1, 3}, {3, 0}, {0, 2}}, "relabeled-c5")
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("isomorphic patterns have different canonical keys")
	}
	if a.CanonicalKey() == House().CanonicalKey() {
		t.Error("non-isomorphic patterns share canonical key")
	}
}

func TestAllConnectedMotifCounts(t *testing.T) {
	// Known counts of connected graphs on n unlabeled vertices.
	want := map[int]int{2: 1, 3: 2, 4: 6, 5: 21}
	for n, w := range want {
		got := AllConnected(n)
		if len(got) != w {
			t.Errorf("AllConnected(%d) = %d patterns, want %d", n, len(got), w)
		}
		keys := map[string]bool{}
		for _, p := range got {
			if !p.Connected() {
				t.Errorf("AllConnected(%d) yielded disconnected %s", n, p)
			}
			k := p.CanonicalKey()
			if keys[k] {
				t.Errorf("AllConnected(%d) yielded duplicate %s", n, p)
			}
			keys[k] = true
		}
	}
}

func TestEvaluationPatterns(t *testing.T) {
	ps := EvaluationPatterns()
	if len(ps) != 6 {
		t.Fatalf("EvaluationPatterns = %d, want 6", len(ps))
	}
	sizes := []int{5, 5, 6, 5, 6, 7}
	for i, p := range ps {
		if p.N() != sizes[i] {
			t.Errorf("P%d has %d vertices, want %d", i+1, p.N(), sizes[i])
		}
		if !p.Connected() {
			t.Errorf("P%d disconnected", i+1)
		}
		if p.Name() == "" {
			t.Errorf("P%d unnamed", i+1)
		}
	}
}

func TestWithName(t *testing.T) {
	h := House()
	r := h.WithName("renamed")
	if r.Name() != "renamed" || h.Name() != "House" {
		t.Error("WithName mutated original or failed to rename")
	}
	if r.AdjacencyString() != h.AdjacencyString() {
		t.Error("WithName changed structure")
	}
}
