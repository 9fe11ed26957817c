// Package pattern represents the small query graphs ("patterns") GraphPi
// searches for, along with the structural analyses the rest of the pipeline
// needs: automorphism enumeration (feeding the restriction generator of
// §IV-A), connectivity of vertex prefixes (Phase 1 of the schedule generator,
// §IV-B) and the maximum independent set size k (Phase 2 and the IEP
// optimization, §IV-B/D).
//
// Patterns are tiny (the paper evaluates 5–7 vertices) so everything here is
// allowed to be exponential in the pattern size; nothing in this package
// touches the data graph.
package pattern

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"graphpi/internal/perm"
)

// MaxVertices is the largest supported pattern size. Schedule enumeration is
// n! so 12 is already generous; the paper's patterns have at most 7 vertices.
const MaxVertices = 12

// Pattern is an undirected, unlabeled query graph over vertices
// {0, …, N()-1}, stored as per-vertex neighbor bitmasks. Patterns are
// immutable after construction.
type Pattern struct {
	n    int
	adj  []uint16 // adj[i] has bit j set iff edge {i,j} exists
	name string

	autsOnce sync.Once
	auts     []perm.Perm // memoised by Automorphisms

	tableOnce sync.Once
	table     *perm.OrderTable // memoised by OrderTable
}

// New builds a pattern with n vertices and the given undirected edges.
// Self-loops and out-of-range endpoints are rejected; duplicate edges are
// tolerated.
func New(n int, edges [][2]int, name string) (*Pattern, error) {
	if n < 1 || n > MaxVertices {
		return nil, fmt.Errorf("pattern: %d vertices out of range [1,%d]", n, MaxVertices)
	}
	p := &Pattern{n: n, adj: make([]uint16, n), name: name}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("pattern: edge {%d,%d} out of range for %d vertices", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("pattern: self-loop at %d", u)
		}
		p.adj[u] |= 1 << v
		p.adj[v] |= 1 << u
	}
	return p, nil
}

// MustNew is New, panicking on error; for statically known patterns.
func MustNew(n int, edges [][2]int, name string) *Pattern {
	p, err := New(n, edges, name)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseAdjacency builds a pattern from a row-major adjacency-matrix string
// of '0'/'1' characters of length n², the input format the GraphPi reference
// implementation uses. The matrix must be symmetric with a zero diagonal.
func ParseAdjacency(n int, matrix string, name string) (*Pattern, error) {
	// Range-check before squaring: n*n wraps to 0 for n = ±2^32, which
	// would accept the empty matrix.
	if n < 1 || n > MaxVertices {
		return nil, fmt.Errorf("pattern: %d vertices out of range [1,%d]", n, MaxVertices)
	}
	if len(matrix) != n*n {
		return nil, fmt.Errorf("pattern: adjacency string has %d chars, want %d", len(matrix), n*n)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := matrix[i*n+j]
			if c != '0' && c != '1' {
				return nil, fmt.Errorf("pattern: bad adjacency char %q", c)
			}
			set := c == '1'
			if i == j && set {
				return nil, fmt.Errorf("pattern: nonzero diagonal at %d", i)
			}
			if set != (matrix[j*n+i] == '1') {
				return nil, fmt.Errorf("pattern: adjacency not symmetric at (%d,%d)", i, j)
			}
			if set && i < j {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return New(n, edges, name)
}

// N returns the number of pattern vertices.
func (p *Pattern) N() int { return p.n }

// Name returns the display name ("" if unnamed).
func (p *Pattern) Name() string { return p.name }

// WithName returns a copy of p carrying the given display name.
func (p *Pattern) WithName(name string) *Pattern {
	return &Pattern{n: p.n, adj: append([]uint16(nil), p.adj...), name: name}
}

// HasEdge reports whether {u, v} is an edge.
func (p *Pattern) HasEdge(u, v int) bool { return p.adj[u]&(1<<v) != 0 }

// Degree returns the degree of vertex v.
func (p *Pattern) Degree(v int) int { return bits.OnesCount16(p.adj[v]) }

// NeighborMask returns the bitmask of v's neighbors.
func (p *Pattern) NeighborMask(v int) uint16 { return p.adj[v] }

// NumEdges returns the number of undirected edges.
func (p *Pattern) NumEdges() int {
	total := 0
	for _, m := range p.adj {
		total += bits.OnesCount16(m)
	}
	return total / 2
}

// Edges returns the edge list with u < v, sorted lexicographically.
func (p *Pattern) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < p.n; u++ {
		m := p.adj[u] >> (u + 1) << (u + 1) // neighbors > u
		for m != 0 {
			v := bits.TrailingZeros16(m)
			out = append(out, [2]int{u, v})
			m &= m - 1
		}
	}
	return out
}

// Connected reports whether the pattern is connected. Pattern matching on a
// disconnected pattern is a cross product of independent subproblems, which
// GraphPi (like the systems it compares against) does not target.
func (p *Pattern) Connected() bool {
	return p.n > 0 && p.connectedSubset((1<<p.n)-1)
}

// PrefixConnected reports whether the vertices {order[0..i]} induce a
// connected subgraph for every prefix i — the Phase-1 criterion of the
// schedule generator ("the subgraph formed by the first i searched vertices
// must be a connected graph").
func (p *Pattern) PrefixConnected(order []int) bool {
	var mask uint16
	for i, v := range order {
		if i > 0 && p.adj[v]&mask == 0 {
			return false
		}
		mask |= 1 << v
	}
	return true
}

// connectedSubset reports whether the subgraph induced by the vertex bitmask
// is connected (an empty mask is vacuously connected).
func (p *Pattern) connectedSubset(mask uint16) bool {
	if mask == 0 {
		return true
	}
	start := uint16(1) << bits.TrailingZeros16(mask)
	visited := start
	frontier := start
	for frontier != 0 {
		next := uint16(0)
		m := frontier
		for m != 0 {
			v := bits.TrailingZeros16(m)
			next |= p.adj[v] & mask
			m &= m - 1
		}
		frontier = next &^ visited
		visited |= frontier
	}
	return visited == mask
}

// IndependentMask reports whether the vertex bitmask induces an independent
// set (no edges inside).
func (p *Pattern) IndependentMask(mask uint16) bool {
	m := mask
	for m != 0 {
		v := bits.TrailingZeros16(m)
		if p.adj[v]&mask != 0 {
			return false
		}
		m &= m - 1
	}
	return true
}

// MaxIndependentSetSize returns k, the largest number of pairwise
// non-adjacent pattern vertices. Phase 2 of the schedule generator requires
// the last k searched vertices to be pairwise non-adjacent, and the IEP
// optimization replaces the innermost k loops with inclusion–exclusion.
func (p *Pattern) MaxIndependentSetSize() int {
	best := 0
	for mask := uint16(0); mask < 1<<p.n; mask++ {
		if c := bits.OnesCount16(mask); c > best && p.IndependentMask(mask) {
			best = c
		}
	}
	return best
}

// Automorphisms returns all automorphisms of the pattern in lexicographic
// order. The result always contains the identity and forms a permutation
// group (verified in tests). It is computed once per Pattern — restriction
// generation, validation and schedule deduplication of one plan all ask — and
// shared between callers, which must not modify it.
func (p *Pattern) Automorphisms() []perm.Perm {
	p.autsOnce.Do(func() {
		p.isomorphisms(p, make(perm.Perm, p.n), 0, 0, func(f perm.Perm) bool {
			p.auts = append(p.auts, f.Clone())
			return true
		})
	})
	return p.auts
}

// OrderTable returns the pattern's n! relative orders laid out by
// automorphism coset (perm.OrderTable), or nil above perm.MaxTableDegree
// vertices. Like Automorphisms it is built once per Pattern, so restriction
// generation, validation and the IEP check of every configuration compiled
// for the pattern share one table; callers must not modify it.
func (p *Pattern) OrderTable() *perm.OrderTable {
	p.tableOnce.Do(func() {
		if p.n <= perm.MaxTableDegree {
			p.table = perm.NewOrderTable(p.n, p.Automorphisms())
		}
	})
	return p.table
}

// isomorphisms backtracks over the images of vertices u, u+1, … of p in q:
// f[u] must be an unused vertex of q with u's degree whose adjacency to the
// images chosen so far mirrors u's adjacency to the vertices below it. Trying
// images in ascending order hands the isomorphisms p → q to found in
// lexicographic order; found returns false to stop the search, and so does
// isomorphisms.
func (p *Pattern) isomorphisms(q *Pattern, f perm.Perm, u int, used uint16, found func(perm.Perm) bool) bool {
	if u == p.n {
		return found(f)
	}
	for img := 0; img < q.n; img++ {
		if used&(1<<img) != 0 || q.Degree(img) != p.Degree(u) {
			continue
		}
		ok := true
		for v := 0; v < u && ok; v++ {
			ok = p.HasEdge(u, v) == q.HasEdge(img, int(f[v]))
		}
		if ok {
			f[u] = uint8(img)
			if !p.isomorphisms(q, f, u+1, used|1<<img, found) {
				return false
			}
		}
	}
	return true
}

// Relabel returns the pattern with vertex i renamed to order[i]. order must
// be a permutation of {0,…,n-1}. Schedules are implemented by relabeling the
// pattern so that search order equals vertex order.
func (p *Pattern) Relabel(order []int) *Pattern {
	if len(order) != p.n {
		panic("pattern: relabel order has wrong length")
	}
	q := &Pattern{n: p.n, adj: make([]uint16, p.n), name: p.name}
	for u := 0; u < p.n; u++ {
		m := p.adj[u]
		for m != 0 {
			v := bits.TrailingZeros16(m)
			q.adj[order[u]] |= 1 << order[v]
			m &= m - 1
		}
	}
	return q
}

// Isomorphic reports whether p and q are isomorphic.
func (p *Pattern) Isomorphic(q *Pattern) bool {
	_, ok := p.IsomorphismTo(q)
	return ok
}

// IsomorphismTo returns a vertex bijection f with every edge (u, v) of p an
// edge (f[u], f[v]) of q: the lexicographically first isomorphism p → q, by
// the backtracking search Automorphisms runs. ok is false when p and q are
// not isomorphic.
func (p *Pattern) IsomorphismTo(q *Pattern) (f perm.Perm, ok bool) {
	if p.n != q.n {
		return nil, false
	}
	p.isomorphisms(q, make(perm.Perm, p.n), 0, 0, func(g perm.Perm) bool {
		f, ok = g.Clone(), true
		return false
	})
	return f, ok
}

// CanonicalKey returns a string that is equal for isomorphic patterns:
// the lexicographically smallest adjacency-matrix encoding over all vertex
// relabelings. Exponential, fine at pattern scale; used to deduplicate
// pattern sets (e.g. the motif census example). Each relabeling is compared
// as its rows, column 0 in the top bit, which orders them as their encodings
// do; only the smallest is rendered.
func (p *Pattern) CanonicalKey() string {
	var best, cur [MaxVertices]uint16
	first := true
	perm.ForEach(p.n, func(f perm.Perm) bool {
		cur = [MaxVertices]uint16{}
		for u := 0; u < p.n; u++ {
			for m := p.adj[u]; m != 0; m &= m - 1 {
				cur[f[u]] |= 1 << (p.n - 1 - int(f[bits.TrailingZeros16(m)]))
			}
		}
		if first || slices.Compare(cur[:p.n], best[:p.n]) < 0 {
			best, first = cur, false
		}
		return true
	})
	b := make([]byte, 0, p.n*p.n)
	for i := 0; i < p.n; i++ {
		for j := p.n - 1; j >= 0; j-- {
			b = append(b, '0'+byte(best[i]>>j&1))
		}
	}
	return string(b)
}

// AdjacencyString renders the row-major 0/1 adjacency matrix (the
// ParseAdjacency format).
func (p *Pattern) AdjacencyString() string {
	var b strings.Builder
	for i := 0; i < p.n; i++ {
		for j := 0; j < p.n; j++ {
			if p.HasEdge(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// String renders a compact description like "House(5v,6e)".
func (p *Pattern) String() string {
	name := p.name
	if name == "" {
		name = "pattern"
	}
	return fmt.Sprintf("%s(%dv,%de)", name, p.n, p.NumEdges())
}
