package pattern_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/perm"
)

// bruteForceAutomorphisms is the n! walk the backtracking search replaced:
// every vertex permutation, kept if it preserves the edge relation.
func bruteForceAutomorphisms(p *pattern.Pattern) []perm.Perm {
	var auts []perm.Perm
	perm.ForEach(p.N(), func(q perm.Perm) bool {
		for u := 0; u < p.N(); u++ {
			for v := 0; v < u; v++ {
				if p.HasEdge(u, v) != p.HasEdge(int(q[u]), int(q[v])) {
					return true
				}
			}
		}
		auts = append(auts, q.Clone())
		return true
	})
	return auts
}

func suite() []patterntest.Named {
	if testing.Short() {
		return patterntest.Suite(5)
	}
	return patterntest.Suite(6)
}

func TestAutomorphismsMatchBruteForce(t *testing.T) {
	for _, np := range suite() {
		got, want := np.Pat.Automorphisms(), bruteForceAutomorphisms(np.Pat)
		if len(got) != len(want) {
			t.Errorf("%s: %d automorphisms, brute force finds %d", np.Name, len(got), len(want))
			continue
		}
		// ForEach is lexicographic, so equality in order is sortedness too.
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s: automorphism %d is %v, brute force has %v", np.Name, i, got[i], want[i])
				break
			}
		}
		// got holds distinct permutations, so it is a group exactly when the
		// group it generates is no larger.
		if len(perm.Closure(got)) != len(got) {
			t.Errorf("%s: automorphisms do not form a group", np.Name)
		}
	}
}

// TestAutomorphismsConcurrent asks one cold Pattern for its memoised
// automorphisms and order table (which reads them) from many goroutines at
// once. Run under -race.
func TestAutomorphismsConcurrent(t *testing.T) {
	p := pattern.Prism()
	var wg sync.WaitGroup
	sizes := make([]int, 8)
	tables := make([]*perm.OrderTable, 8)
	for i := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				tables[i] = p.OrderTable()
			}
			sizes[i] = len(p.Automorphisms())
			if i%2 == 1 {
				tables[i] = p.OrderTable()
			}
		}()
	}
	wg.Wait()
	for i, n := range sizes {
		if n != 12 {
			t.Errorf("goroutine %d saw %d automorphisms, want 12", i, n)
		}
		if tables[i] == nil || tables[i] != tables[0] {
			t.Errorf("goroutine %d saw order table %p, goroutine 0 %p", i, tables[i], tables[0])
		}
	}
}

// bruteForceIsomorphism is the n! walk IsomorphismTo replaced: the first
// bijection, in lexicographic order, that maps every edge of p to an edge of
// q.
func bruteForceIsomorphism(p, q *pattern.Pattern) (f perm.Perm, ok bool) {
	if p.N() != q.N() || p.NumEdges() != q.NumEdges() {
		return nil, false
	}
	perm.ForEach(p.N(), func(g perm.Perm) bool {
		for u := 0; u < p.N(); u++ {
			for v := 0; v < u; v++ {
				if p.HasEdge(u, v) && !q.HasEdge(int(g[u]), int(g[v])) {
					return true
				}
			}
		}
		f, ok = g.Clone(), true
		return false
	})
	return f, ok
}

// TestIsomorphismToMatchesBruteForce runs IsomorphismTo over every ordered
// pair of the short suite's patterns, each also under three seeded random
// relabellings: the search must return exactly the brute-force walk's
// bijection and verdict.
func TestIsomorphismToMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var pats []patterntest.Named
	for _, np := range patterntest.Suite(5) {
		pats = append(pats, np)
		for i := 1; i <= 3; i++ {
			order := rng.Perm(np.Pat.N())
			pats = append(pats, patterntest.Named{Name: fmt.Sprintf("%s~%d", np.Name, i), Pat: np.Pat.Relabel(order)})
		}
	}
	for _, a := range pats {
		for _, b := range pats {
			got, gotOK := a.Pat.IsomorphismTo(b.Pat)
			want, wantOK := bruteForceIsomorphism(a.Pat, b.Pat)
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("%s → %s: IsomorphismTo = %v, %v; brute force %v, %v", a.Name, b.Name, got, gotOK, want, wantOK)
			}
		}
	}
}
