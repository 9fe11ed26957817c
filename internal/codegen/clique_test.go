package codegen

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/telemetry"
)

// refCliques counts q-cliques by extending descending vertex chains one
// HasEdge probe at a time: no candidate sets, no rows, nothing shared with
// the kernel.
func refCliques(g *graph.Graph, q int) int64 {
	chain := make([]uint32, 0, q)
	var rec func(below int) int64
	rec = func(below int) int64 {
		if len(chain) == q {
			return 1
		}
		var n int64
	next:
		for v := 0; v < below; v++ {
			for _, u := range chain {
				if !g.HasEdge(u, uint32(v)) {
					continue next
				}
			}
			chain = append(chain, uint32(v))
			n += rec(v)
			chain = chain[:len(chain)-1]
		}
		return n
	}
	return rec(g.NumVertices())
}

func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

// plantedGraph builds a disjoint union of complete graphs, so every clique
// count has the closed form Σ C(size, q).
func plantedGraph(t testing.TB, sizes ...int) *graph.Graph {
	t.Helper()
	total := 0
	for _, s := range sizes {
		total += s
	}
	b := graph.NewBuilder(total, 0)
	base := 0
	for _, s := range sizes {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(uint32(base+i), uint32(base+j))
			}
		}
		base += s
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hubHeavyGraph is G(n, m) plus a few vertices adjacent to everything, given
// the largest ids and left unreordered: the last root's candidate set is the
// whole graph, the case the matrix cap exists for.
func hubHeavyGraph(t testing.TB, n, m, hubs int, seed uint64) *graph.Graph {
	t.Helper()
	base := graph.GNM(n, m, seed)
	b := graph.NewBuilder(n+hubs, m+hubs*(n+hubs))
	for v := 0; v < n; v++ {
		for _, w := range base.Neighbors(uint32(v)) {
			if uint32(v) < w {
				b.AddEdge(uint32(v), w)
			}
		}
	}
	for h := n; h < n+hubs; h++ {
		for v := 0; v < h; v++ {
			b.AddEdge(uint32(v), uint32(h))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func countSlots(g *graph.Graph, q int, cuts ...int) int64 {
	c := NewClique(g, q, nil)
	for i := 0; i+1 < len(cuts); i++ {
		c.RunTask(cuts[i], cuts[i+1])
	}
	return c.Count()
}

func TestCliquePlantedCounts(t *testing.T) {
	planted := func(qs []int, sizes ...int) {
		g := plantedGraph(t, sizes...)
		for _, q := range qs {
			var want int64
			for _, s := range sizes {
				want += binom(s, q)
			}
			if got := countSlots(g, q, 0, g.NumAdjSlots()); got != want {
				t.Errorf("K%d in K%v: slot ranges counted %d, want %d", q, sizes, got, want)
			}
		}
	}
	planted([]int{3, 4, 5, 6, 7, 9, 12, 13, 14, 15}, 14, 9, 5, 3)
	planted([]int{3, 4}, 70, 130) // rows of two and three words
}

// TestCliqueRangeSplit cuts the slot range at every point — most cuts fall
// inside one root's adjacency, some inside the part of it above the root that
// selects nothing — on plain and bitmap-accelerated graphs.
func TestCliqueRangeSplit(t *testing.T) {
	plain := graph.BarabasiAlbert(90, 6, 99)
	hubs := graph.BarabasiAlbert(90, 6, 99)
	hubs.BuildHubBitmaps(1<<24, 8)
	for q := 3; q <= 5; q++ {
		want := refCliques(plain, q)
		if want == 0 {
			t.Fatalf("K%d: fixture has no clique", q)
		}
		for name, g := range map[string]*graph.Graph{"plain": plain, "hubs": hubs} {
			m := g.NumAdjSlots()
			for cut := 0; cut <= m; cut++ {
				if got := countSlots(g, q, 0, cut, m); got != want {
					t.Fatalf("K%d %s: slot ranges cut at %d sum to %d, want %d", q, name, cut, got, want)
				}
			}
		}
	}
}

// TestCliqueListDescent lowers the matrix cap until roots no longer fit: one
// list level (cap 40 against candidate sets of ~130), several (cap 6), and a
// cap of 1 where the sorted lists do all the work down to the last pair.
func TestCliqueListDescent(t *testing.T) {
	g := hubHeavyGraph(t, 120, 900, 10, 5)
	gHub := hubHeavyGraph(t, 120, 900, 10, 5)
	gHub.BuildHubBitmaps(1<<24, 8)
	m := g.NumAdjSlots()
	for q := 3; q <= 6; q++ {
		want := refCliques(g, q)
		for _, limit := range []int{cliqueCap, 40, 6, 1} {
			for name, gg := range map[string]*graph.Graph{"plain": g, "hubs": gHub} {
				st := telemetry.NewRunStats(q)
				c := NewClique(gg, q, nil)
				c.cap = limit
				c.SetStats(st)
				c.RunTask(0, m)
				if c.Count() != want {
					t.Errorf("K%d %s cap %d: one slot range counted %d, want %d", q, name, limit, c.Count(), want)
				}
				if leaf := st.Levels[q-1].Candidates; leaf != uint64(want) {
					t.Errorf("K%d %s cap %d: leaf level scanned %d candidates, count is %d", q, name, limit, leaf, want)
				}
				e := NewClique(gg, q, nil)
				e.cap = limit
				e.RunTask(0, m/3)
				e.RunTask(m/3, m-7) // m-7: inside the last hub's adjacency
				e.RunTask(m-7, m)
				if e.Count() != want {
					t.Errorf("K%d %s cap %d: slot ranges counted %d, want %d", q, name, limit, e.Count(), want)
				}
			}
		}
	}
}

// TestCliqueStats pins what the counters mean: level 0 scans roots, one scan
// per root a task reaches, the leaf
// level's candidates are the cliques, and a split root is counted by both
// halves without either building the other's rows.
func TestCliqueStats(t *testing.T) {
	g := plantedGraph(t, 12)
	st := telemetry.NewRunStats(4)
	c := NewClique(g, 4, nil)
	c.SetStats(st)
	c.RunTask(0, g.NumAdjSlots())
	if c.Count() != binom(12, 4) || st.Levels[3].Candidates != uint64(binom(12, 4)) {
		t.Fatalf("K4 in K12: counted %d, leaf candidates %d, want %d", c.Count(), st.Levels[3].Candidates, binom(12, 4))
	}
	if st.Levels[0].Scans != 12 || st.Levels[0].Candidates != 12 {
		t.Errorf("level 0: %+v, want one scan of each of 12 roots", st.Levels[0])
	}
	// One row per (root, candidate) pair, one AND per triangle and per K4's
	// top triple; nothing is ever empty before the leaf in a complete graph
	// except below the smallest vertices.
	if got, want := st.Levels[1].Intersections, uint64(binom(12, 2)); got != want {
		t.Errorf("level 1 built %d rows, want %d", got, want)
	}
	if got, want := st.Levels[2].Intersections, uint64(binom(12, 3)); got != want {
		t.Errorf("level 2 ran %d ANDs, want %d", got, want)
	}

	// The top root's adjacency split after its 4th slot: the first task
	// builds rows 0..3 only.
	first, _ := g.AdjSlotRange(11)
	half := telemetry.NewRunStats(4)
	h := NewClique(g, 4, nil)
	h.SetStats(half)
	h.RunTask(first, first+4)
	if h.Count() != binom(4, 3) {
		t.Errorf("slots of the 4 smallest candidates counted %d, want %d", h.Count(), binom(4, 3))
	}
	if got := half.Levels[1].Intersections; got != 4 {
		t.Errorf("a task selecting positions 0..3 built %d rows, want 4", got)
	}
}

func TestCliqueStop(t *testing.T) {
	g := plantedGraph(t, 12, 12)
	var stop atomic.Bool
	stop.Store(true)
	c := NewClique(g, 4, &stop)
	c.RunTask(0, g.NumAdjSlots())
	if c.Count() != 0 {
		t.Errorf("stopped kernel counted %d, want 0", c.Count())
	}

	// One root only — the top vertex of a K56, 1.2e9 9-cliques through it — so
	// a kernel that probed the flag per root would run it to the end. The
	// depth-1 probe abandons it between two candidates.
	big := plantedGraph(t, 56)
	stop.Store(false)
	time.AfterFunc(20*time.Millisecond, func() { stop.Store(true) })
	c = NewClique(big, 9, &stop)
	c.RunTask(big.AdjSlotRange(55))
	if full := binom(55, 8); c.Count() >= full {
		t.Errorf("stop raised mid-root: counted %d of %d, want a partial tally", c.Count(), full)
	}
}

// BenchmarkCliqueRMAT times the kernel alone, one worker, on the graph of the
// harness's clique-rmat workload (degree-ordered, hub bitmaps): K3 is the row
// builds, each larger clique adds one level of word ANDs.
func BenchmarkCliqueRMAT(b *testing.B) {
	g := graph.RMAT(15, 400000, 0.57, 0.19, 0.19, 4242).Reorder()
	g.BuildHubBitmaps(0, 0)
	for q := 3; q <= 6; q++ {
		b.Run(fmt.Sprintf("k%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := NewClique(g, q, nil)
				c.RunTask(0, g.NumAdjSlots())
			}
		})
	}
}
