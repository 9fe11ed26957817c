package pattern_test

import (
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
			if !perm.Equal(got[i], want[i]) {
				t.Errorf("%s: automorphism %d is %v, brute force has %v", np.Name, i, got[i], want[i])
				break
			}
		}
		if !perm.IsGroup(got) {
			t.Errorf("%s: automorphisms do not form a group", np.Name)
		}
	}
}

// TestAutomorphismsConcurrent asks one cold Pattern for its memoised
// automorphisms from many goroutines at once. Run under -race.
func TestAutomorphismsConcurrent(t *testing.T) {
	p := pattern.Prism()
	var wg sync.WaitGroup
	sizes := make([]int, 8)
	for i := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes[i] = len(p.Automorphisms())
		}()
	}
	wg.Wait()
	for i, n := range sizes {
		if n != 12 {
			t.Errorf("goroutine %d saw %d automorphisms, want 12", i, n)
		}
	}
}
