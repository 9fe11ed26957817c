package pattern

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"graphpi/internal/perm"
)

// This file defines the concrete patterns the paper's evaluation uses.
//
// Figure 7 of the paper is an image, so the exact glyphs of P1–P6 are not
// recoverable from the text. The definitions below satisfy every textual
// constraint the paper states (see DESIGN.md §3 for the full justification):
//
//   - P1, P2 are "also used in GraphZero" and relatively simple → House (the
//     paper's own running example, Figure 5) and Pentagon.
//   - P3 is pinned exactly by Figure 6's pseudocode: the Cycle-6-Tri pattern
//     with schedule A→B→C→D→E→F, candidate sets S1=N(A)∩N(B), S2=N(A)∩N(C),
//     S3=N(B)∩N(C), k = 3.
//   - P4's "top 4 vertices" form a rectangle (§V-C) → K_{2,3}, whose model
//     prediction indeed requires rectangle counts the model approximates
//     with triangle counts.
//   - P5, P6 are larger/denser with small k and the largest preprocessing
//     cost (Table III) → triangular prism (6v) and 7-clique minus an edge.

// Triangle returns K3.
func Triangle() *Pattern {
	return MustNew(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, "Triangle")
}

// Rectangle returns the 4-cycle — the pattern of the paper's Figure 4, whose
// automorphism group is the dihedral group of order 8.
func Rectangle() *Pattern {
	return MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, "Rectangle")
}

// Pentagon returns the 5-cycle (automorphism group of order 10).
func Pentagon() *Pattern {
	return MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, "Pentagon")
}

// House returns the paper's running example (Figure 5): the rectangle
// A-C-D-B plus the roof triangle A-B-E. In our labeling: square 0-2-3-1 and
// triangle 0-1-4 sharing edge {0,1}.
func House() *Pattern {
	return MustNew(5, [][2]int{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, // square
		{0, 4}, {1, 4}, // roof
	}, "House")
}

// Cycle6Tri returns the pattern of the paper's Figure 6, reconstructed from
// its pseudocode: a 6-cycle D-A-E-C-F-B with chords A-B and A-C. With
// A,B,C,D,E,F = 0..5 the edges are exactly those implied by the candidate
// sets S1 = N(A)∩N(B) (for D), S2 = N(A)∩N(C) (for E), S3 = N(B)∩N(C)
// (for F). Its maximum independent set is {D,E,F}, so k = 3.
func Cycle6Tri() *Pattern {
	return MustNew(6, [][2]int{
		{0, 1}, {0, 2}, // chords A-B, A-C
		{0, 3}, {1, 3}, // D adj A,B
		{0, 4}, {2, 4}, // E adj A,C
		{1, 5}, {2, 5}, // F adj B,C
	}, "Cycle6Tri")
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *Pattern {
	var edges [][2]int
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, [2]int{i, a + j})
		}
	}
	return MustNew(a+b, edges, fmt.Sprintf("K%d,%d", a, b))
}

// Prism returns the triangular prism: triangles {0,1,2} and {3,4,5} joined
// by a perfect matching. 6 vertices, 9 edges, automorphism group of order
// 12, maximum independent set k = 2.
func Prism() *Pattern {
	return MustNew(6, [][2]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{0, 3}, {1, 4}, {2, 5},
	}, "Prism")
}

// Clique returns K_n.
func Clique(n int) *Pattern {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return MustNew(n, edges, fmt.Sprintf("K%d", n))
}

// CliqueMinus returns K_n minus the edge {0, 1}.
func CliqueMinus(n int) *Pattern {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u == 0 && v == 1 {
				continue
			}
			edges = append(edges, [2]int{u, v})
		}
	}
	return MustNew(n, edges, fmt.Sprintf("K%d-e", n))
}

// CycleN returns the n-cycle pattern.
func CycleN(n int) *Pattern {
	var edges [][2]int
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	return MustNew(n, edges, fmt.Sprintf("C%d", n))
}

// StarN returns the star with one hub (vertex 0) and n-1 leaves.
func StarN(n int) *Pattern {
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return MustNew(n, edges, fmt.Sprintf("S%d", n))
}

// PathN returns the path pattern with n vertices.
func PathN(n int) *Pattern {
	var edges [][2]int
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	return MustNew(n, edges, fmt.Sprintf("P%dpath", n))
}

// P1 through P6 are the evaluation patterns standing in for the paper's
// Figure 7 (see the file comment and DESIGN.md §3).

// P1 returns evaluation pattern P1 (House).
func P1() *Pattern { return House().WithName("P1-House") }

// P2 returns evaluation pattern P2 (Pentagon).
func P2() *Pattern { return Pentagon().WithName("P2-Pentagon") }

// P3 returns evaluation pattern P3 (Cycle-6-Tri).
func P3() *Pattern { return Cycle6Tri().WithName("P3-Cycle6Tri") }

// P4 returns evaluation pattern P4 (K_{2,3}; its "top 4" vertices form a
// rectangle).
func P4() *Pattern { return CompleteBipartite(2, 3).WithName("P4-K23") }

// P5 returns evaluation pattern P5 (triangular prism).
func P5() *Pattern { return Prism().WithName("P5-Prism") }

// P6 returns evaluation pattern P6 (K7 minus an edge).
func P6() *Pattern { return CliqueMinus(7).WithName("P6-K7me") }

// EvaluationPatterns returns P1–P6 in order, the pattern suite of the
// paper's Figures 8–11 and Tables II–III.
func EvaluationPatterns() []*Pattern {
	return []*Pattern{P1(), P2(), P3(), P4(), P5(), P6()}
}

// Named resolves a pattern by the names the CLI and the query service
// accept, case-insensitively: the worked examples (triangle, rectangle,
// pentagon, house, cycle6tri), the evaluation suite p1..p6, and cliques
// k3..k12.
func Named(name string) (*Pattern, error) {
	switch n := strings.ToLower(strings.TrimSpace(name)); n {
	case "triangle":
		return Triangle(), nil
	case "rectangle":
		return Rectangle(), nil
	case "pentagon":
		return Pentagon(), nil
	case "house":
		return House(), nil
	case "cycle6tri":
		return Cycle6Tri(), nil
	case "p1", "p2", "p3", "p4", "p5", "p6":
		return EvaluationPatterns()[n[1]-'1'], nil
	default:
		if len(n) >= 2 && n[0] == 'k' {
			if size, err := strconv.Atoi(n[1:]); err == nil {
				if size < 3 || size > MaxVertices {
					return nil, fmt.Errorf("pattern: clique size %d out of range [3,%d]", size, MaxVertices)
				}
				return Clique(size), nil
			}
		}
		return nil, fmt.Errorf("pattern: unknown pattern name %q", name)
	}
}

// Parse resolves a pattern spec: either a Named pattern or the
// "n:rowmajor01matrix" adjacency form the reference implementation uses.
func Parse(spec string) (*Pattern, error) {
	if head, matrix, ok := strings.Cut(spec, ":"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil {
			return nil, fmt.Errorf("pattern: bad size in spec %q: %v", spec, err)
		}
		return ParseAdjacency(n, strings.TrimSpace(matrix), "custom")
	}
	return Named(spec)
}

// AllConnected enumerates all connected patterns with n vertices up to
// isomorphism (the "n-motifs"), sorted by edge count, then canonical key.
// It walks the 2^(n(n-1)/2) edge masks in order: the first connected mask of
// an isomorphism class represents it, named motif{n}-{k} in discovery order,
// and marks all n! relabellings of itself in a seen-bitset, so the rest of
// its class costs one bit test each. Exponential: 6 vertices take tens of
// milliseconds, 7 seconds.
func AllConnected(n int) []*Pattern {
	var pairs [][2]int
	var pairBit [MaxVertices][MaxVertices]uint
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairBit[u][v], pairBit[v][u] = uint(len(pairs)), uint(len(pairs))
			pairs = append(pairs, [2]int{u, v})
		}
	}
	type class struct {
		pat *Pattern
		key string
	}
	var classes []class
	seen := make([]uint64, (1<<len(pairs)+63)/64)
	for mask := 0; mask < 1<<len(pairs); mask++ {
		if seen[mask/64]&(1<<(mask%64)) != 0 {
			continue
		}
		var edges [][2]int
		for i, pr := range pairs {
			if mask&(1<<i) != 0 {
				edges = append(edges, pr)
			}
		}
		p := MustNew(n, edges, "")
		if !p.Connected() {
			continue
		}
		p.name = fmt.Sprintf("motif%d-%d", n, len(classes)+1)
		perm.ForEach(n, func(f perm.Perm) bool {
			img := 0
			for _, e := range edges {
				img |= 1 << pairBit[f[e[0]]][f[e[1]]]
			}
			seen[img/64] |= 1 << (img % 64)
			return true
		})
		classes = append(classes, class{p, p.CanonicalKey()})
	}
	slices.SortFunc(classes, func(a, b class) int {
		if c := cmp.Compare(a.pat.NumEdges(), b.pat.NumEdges()); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	out := make([]*Pattern, len(classes))
	for i, c := range classes {
		out[i] = c.pat
	}
	return out
}
