// Package baseline holds the all-injective-maps brute-force oracle: the
// reference count that shares nothing with the engine, its planner or its
// kernels, against which the engine's tests and the benchmark's golden
// counts are checked.
package baseline

import (
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// BruteForceCount counts embeddings (automorphism classes) by enumerating
// every injective vertex map that preserves the pattern's edges. It first
// relabels the pattern so every prefix of its vertex order is connected —
// the count does not change under relabelling — so each vertex after the
// first has an earlier neighbour, and its candidates are that neighbour's
// image's neighbours rather than all of V. Exponential in the pattern size;
// tests only.
func BruteForceCount(g *graph.Graph, pat *pattern.Pattern) int64 {
	n := pat.N()
	nv := g.NumVertices()
	if n > nv {
		return 0
	}
	rel := relabelByOrder(pat, connectedOrder(pat))
	all := make([]uint32, nv)
	for v := range all {
		all[v] = uint32(v)
	}
	used := make([]bool, nv)
	assign := make([]uint32, n)
	var count int64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			count++
			return
		}
		cands := all
		for j := 0; j < i; j++ {
			if rel.HasEdge(i, j) {
				cands = g.Neighbors(assign[j])
				break
			}
		}
	next:
		for _, v := range cands {
			if used[v] {
				continue
			}
			for j := 0; j < i; j++ {
				if rel.HasEdge(i, j) && !g.HasEdge(assign[j], v) {
					continue next
				}
			}
			used[v] = true
			assign[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return count / int64(len(pat.Automorphisms()))
}

// connectedOrder returns a vertex order with connected prefixes (BFS from
// vertex 0).
func connectedOrder(pat *pattern.Pattern) []int {
	n := pat.N()
	order := make([]int, 0, n)
	inOrder := make([]bool, n)
	order = append(order, 0)
	inOrder[0] = true
	for len(order) < n {
		added := false
		for v := 0; v < n && !added; v++ {
			if inOrder[v] {
				continue
			}
			for _, u := range order {
				if pat.HasEdge(v, u) {
					order = append(order, v)
					inOrder[v] = true
					added = true
					break
				}
			}
		}
		if !added {
			// Disconnected pattern: append remaining arbitrarily.
			for v := 0; v < n; v++ {
				if !inOrder[v] {
					order = append(order, v)
					inOrder[v] = true
					break
				}
			}
		}
	}
	return order
}

func relabelByOrder(pat *pattern.Pattern, order []int) *pattern.Pattern {
	inv := make([]int, len(order))
	for pos, v := range order {
		inv[v] = pos
	}
	return pat.Relabel(inv)
}
