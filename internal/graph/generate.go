package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// This file provides deterministic synthetic graph generators. They serve
// two purposes: (1) fixtures for tests and property checks, and (2) the
// dataset substitution layer — the paper evaluates on SNAP graphs that are
// not redistributable here, so internal/dataset instantiates generators with
// matched size/degree regimes (see DESIGN.md §3).

// pcg returns the deterministic PCG source for a given seed.
func pcg(seed uint64) *rand.PCG {
	return rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
}

// rng returns a deterministic generator over pcg(seed).
func rng(seed uint64) *rand.Rand { return rand.New(pcg(seed)) }

// Complete returns the complete graph K_n. Algorithm 1's validate step runs
// pattern matching on complete graphs (§IV-A).
func Complete(n int) *Graph {
	b := NewBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: Complete(%d): %v", n, err))
	}
	g.SetName(fmt.Sprintf("K%d", n))
	return g
}

// Cycle returns the cycle graph C_n (n >= 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n, n)
	for v := 0; v < n; v++ {
		b.AddEdge(uint32(v), uint32((v+1)%n))
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: Cycle(%d): %v", n, err))
	}
	g.SetName(fmt.Sprintf("C%d", n))
	return g
}

// Star returns the star graph with one hub and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge(0, uint32(v))
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: Star(%d): %v", n, err))
	}
	g.SetName(fmt.Sprintf("star%d", n))
	return g
}

// Path returns the path graph P_n.
func Path(n int) *Graph {
	b := NewBuilder(n, n-1)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(uint32(v), uint32(v+1))
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: Path(%d): %v", n, err))
	}
	g.SetName(fmt.Sprintf("path%d", n))
	return g
}

// GNM returns a uniform random graph with n vertices and (up to) m distinct
// edges — the Erdős–Rényi G(n, m) model. Low clustering, low skew: the
// regime of the Patents citation graph.
func GNM(n int, m int, seed uint64) *Graph {
	r := rng(seed)
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	b := NewBuilder(n, m)
	seen := newEdgeSet(m)
	for distinct := 0; distinct < m; {
		u := uint64(r.IntN(n))
		v := uint64(r.IntN(n))
		if key := edgeKey(u, v); key != 0 && seen.add(key) {
			distinct++
			b.AddEdge(uint32(key>>32), uint32(key))
		}
	}
	b.SetNumVertices(n)
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: GNM(%d,%d): %v", n, m, err))
	}
	g.SetName(fmt.Sprintf("gnm-%d-%d", n, m))
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: each new vertex
// attaches to mPerVertex existing vertices chosen proportionally to degree.
// Power-law degrees and high clustering: the regime of social graphs
// (Wiki-Vote, LiveJournal, Orkut).
func BarabasiAlbert(n, mPerVertex int, seed uint64) *Graph {
	if mPerVertex < 1 {
		mPerVertex = 1
	}
	if n <= mPerVertex {
		return Complete(n)
	}
	r := rng(seed)
	b := NewBuilder(n, n*mPerVertex)
	// Seed clique over the first mPerVertex+1 vertices.
	for u := 0; u <= mPerVertex; u++ {
		for v := u + 1; v <= mPerVertex; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	// endpoints holds one entry per edge endpoint; uniform sampling from it
	// is degree-proportional sampling.
	endpoints := make([]uint32, 0, 2*n*mPerVertex)
	for u := 0; u <= mPerVertex; u++ {
		for v := u + 1; v <= mPerVertex; v++ {
			endpoints = append(endpoints, uint32(u), uint32(v))
		}
	}
	picked := make([]uint32, 0, mPerVertex)
	for v := mPerVertex + 1; v < n; v++ {
		// picked holds at most mPerVertex targets, in draw order; a scan
		// of it is cheaper than any set.
		picked = picked[:0]
		for len(picked) < mPerVertex {
			if t := endpoints[r.IntN(len(endpoints))]; !slices.Contains(picked, t) {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			b.AddEdge(uint32(v), t)
			endpoints = append(endpoints, uint32(v), t)
		}
	}
	b.SetNumVertices(n)
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: BarabasiAlbert(%d,%d): %v", n, mPerVertex, err))
	}
	g.SetName(fmt.Sprintf("ba-%d-%d", n, mPerVertex))
	return g
}

// RMAT returns a recursive-matrix random graph with 2^scale vertices and
// approximately edges distinct edges, using the standard (a,b,c,d) quadrant
// probabilities. Heavy skew: the regime of the Twitter follower graph.
// Duplicate and self-loop samples are dropped, so the realized edge count can
// fall slightly short of the request.
//
// The graph is a function of the arguments and the seed's PCG draws alone:
// each sample descends scale levels on one draw each, a sample counts as an
// attempt whether or not it is kept, and sampling stops at edges distinct
// edges or 8·edges attempts. A rewrite must draw the same words and accept
// the same key set, or every golden count on an RMAT graph moves.
func RMAT(scale int, edges int, a, b, c float64, seed uint64) *Graph {
	src := pcg(seed)
	n := 1 << scale
	bld := NewBuilder(n, edges)
	// Thresholds on each draw's low 53 bits: the descent is three compares
	// per level and no branch.
	tA, tAB, tABC := quadrantThresholds(a, b, c)
	seen := newEdgeSet(edges)
	buf := make([]uint64, min(edges, rmatBatch))
	distinct, attempts := 0, 0
	maxAttempts := edges * 8
	for distinct < edges && attempts < maxAttempts {
		// The draws never depend on the set and one attempt keeps at most
		// one edge, so the next k attempts run as in a one-at-a-time loop.
		// Drawing them first and probing after lets the probes' cache
		// misses overlap.
		batch := buf[:min(edges-distinct, maxAttempts-attempts, len(buf))]
		for i := range batch {
			var u, v uint64
			for bit := scale - 1; bit >= 0; bit-- {
				ub, vb := quadrantBits(src.Uint64()<<11>>11, tA, tAB, tABC)
				u |= ub << bit
				v |= vb << bit
			}
			// A self-loop becomes key 0, which the set never holds.
			batch[i] = edgeKey(u, v)
		}
		attempts += len(batch)
		for _, key := range batch {
			if key != 0 && seen.add(key) {
				distinct++
				bld.AddEdge(uint32(key>>32), uint32(key))
			}
		}
	}
	bld.SetNumVertices(n)
	g, err := bld.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: RMAT(%d,%d): %v", scale, edges, err))
	}
	g.SetName(fmt.Sprintf("rmat-%d-%d", scale, edges))
	return g
}

// rmatBatch bounds how many of RMAT's samples are drawn ahead of their
// probes (512 KiB of keys).
const rmatBatch = 1 << 16

// quadrantThresholds turns RMAT's quadrant test into integer compares.
// rand.Rand.Float64 returns p = y/2⁵³ with y = x<<11>>11 the low 53 bits of
// one PCG word, so p < t holds exactly when y < ⌈t·2⁵³⌉. The thresholds
// belong to the float sums a, a+b and a+b+c, as in the quadrant switch
//
//	p < a: top-left; p < a+b: top-right; p < a+b+c: bottom-left; else bottom-right
//
// and each is raised to the one before it, so that a quadrant the switch can
// never reach (a negative b or c) is an empty interval.
func quadrantThresholds(a, b, c float64) (tA, tAB, tABC uint64) {
	tA = drawThreshold(a)
	tAB = max(tA, drawThreshold(a+b))
	tABC = max(tAB, drawThreshold(a+b+c))
	return tA, tAB, tABC
}

// drawThreshold returns ⌈t·2⁵³⌉ clamped to [0, 2⁵³]: the count of 53-bit
// draws y with y/2⁵³ < t. NaN compares false, so it counts none.
func drawThreshold(t float64) uint64 {
	switch {
	case !(t > 0):
		return 0
	case t >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(t * (1 << 53)))
}

// quadrantBits returns the row and column bit of the quadrant that the 53-bit
// draw y picks under quadrantThresholds' tA <= tAB <= tABC: below tA
// top-left (0, 0), then top-right (0, 1), bottom-left (1, 0) and
// bottom-right (1, 1).
func quadrantBits(y, tA, tAB, tABC uint64) (ubit, vbit uint64) {
	ubit = atLeast(y, tAB)
	return ubit, atLeast(y, tA) ^ ubit ^ atLeast(y, tABC)
}

// atLeast is 1 when x >= t and 0 otherwise, for x, t < 2⁶³: t-1-x is
// negative, and so has its sign bit set, exactly when x >= t.
func atLeast(x, t uint64) uint64 { return (t - 1 - x) >> 63 }

// edgeKey packs the undirected edge {u, v} as lo<<32 | hi, or 0 for u == v.
// Since lo < hi, no edge packs to 0.
func edgeKey(u, v uint64) uint64 {
	if u == v {
		return 0
	}
	lo, hi := min(u, v), max(u, v)
	return lo<<32 | hi
}

// edgeSet is the generators' dedupe set: open addressing with linear probing
// over a power-of-two table of edge keys, at least twice the keys it will
// hold, with 0 marking an empty slot (edgeKey never yields 0).
type edgeSet struct {
	slots []uint64
	shift uint // 64 − log₂ len(slots)
}

// newEdgeSet returns a set with room for n keys.
func newEdgeSet(n int) edgeSet {
	logCap := bits.Len(uint(max(n, 1))) + 1 // 2^logCap >= 2n
	return edgeSet{slots: make([]uint64, 1<<logCap), shift: uint(64 - logCap)}
}

// add inserts the nonzero key and reports whether it was absent.
func (s *edgeSet) add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the product's top bits mix both endpoints.
	for i := key * 0x9e3779b97f4a7c15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}

// GNP returns an Erdős–Rényi G(n, p) graph. Intended for small test
// fixtures; for large sparse graphs prefer GNM.
func GNP(n int, p float64, seed uint64) *Graph {
	r := rng(seed)
	b := NewBuilder(n, int(p*float64(n)*float64(n-1)/2)+1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(uint32(u), uint32(v))
			}
		}
	}
	b.SetNumVertices(n)
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: GNP(%d,%g): %v", n, p, err))
	}
	g.SetName(fmt.Sprintf("gnp-%d-%g", n, p))
	return g
}
