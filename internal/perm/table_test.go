package perm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// cosetCounts is the enumeration the table replaces: for every coset
// σ∘G of the n! orders, in order of its lexicographically first member, the
// number of its orders that respect above (CountOrders' relation).
func cosetCounts(n int, group []Perm, above []uint16) []int {
	pass := func(sigma Perm) bool {
		for v, m := range above {
			for u := 0; u < n; u++ {
				if m&(1<<u) != 0 && sigma[u] <= sigma[v] {
					return false
				}
			}
		}
		return true
	}
	seen := map[string]bool{}
	var counts []int
	ForEach(n, func(sigma Perm) bool {
		if seen[string(sigma)] {
			return true
		}
		k := 0
		for _, a := range group {
			tau := make(Perm, n)
			for i := range a {
				tau[i] = sigma[a[i]]
			}
			seen[string(tau)] = true
			if pass(tau) {
				k++
			}
		}
		counts = append(counts, k)
		return true
	})
	return counts
}

// randomAbove draws a "must be greater" relation of up to k constraints,
// cyclic ones included.
func randomAbove(r *rand.Rand, n, k int) []uint16 {
	above := make([]uint16, n)
	for ; k > 0 && n > 1; k-- {
		u, v := r.IntN(n), r.IntN(n)
		if u != v {
			above[v] |= 1 << u
		}
	}
	return above
}

type namedGroup struct {
	name  string
	group []Perm
}

// tableGroups are groups of every lane shape: trivial, |G| below, at and
// above one word, the whole symmetric group, and random cyclic groups.
func tableGroups(r *rand.Rand) []namedGroup {
	gs := []namedGroup{
		{"S1", []Perm{Identity(1)}},
		{"trivial-5", []Perm{Identity(5)}},
		{"C2-6", Closure([]Perm{{1, 0, 2, 3, 4, 5}})},
		{"C3-6", Closure([]Perm{{1, 2, 0, 3, 4, 5}})},
		{"D4-4", Closure([]Perm{{1, 2, 3, 0}, {0, 3, 2, 1}})},
		{"S4xS2-6", Closure([]Perm{{1, 0, 2, 3, 4, 5}, {1, 2, 3, 0, 4, 5}, {0, 1, 2, 3, 5, 4}})}, // 48
		{"S5-6", Closure([]Perm{{1, 0, 2, 3, 4, 5}, {1, 2, 3, 4, 0, 5}})},                        // 120: two words per coset
		{"S6", Closure([]Perm{{1, 0, 2, 3, 4, 5}, {1, 2, 3, 4, 5, 0}})},
	}
	for n := 2; n <= 7; n++ {
		gs = append(gs, namedGroup{fmt.Sprintf("random-%d", n), Closure([]Perm{randPerm(r, n)})})
	}
	return gs
}

// TestOrderTableMatchesEnumeration checks Satisfying, Restrict and PerCoset
// against counting every coset's orders one by one.
func TestOrderTableMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 3))
	for _, g := range tableGroups(r) {
		name, group := g.name, g.group
		n := len(group[0])
		tab := NewOrderTable(n, group)
		for trial := 0; trial < 30; trial++ {
			above := randomAbove(r, n, r.IntN(n+2))
			set := tab.Satisfying(above)
			if got, want := tab.Count(set), CountOrders(above, nil); got != want {
				t.Fatalf("%s %v: Count = %d, CountOrders %d", name, above, got, want)
			}
			counts := cosetCounts(n, group, above)
			if len(counts) != int(Factorial(n))/len(group) {
				t.Fatalf("%s: %d cosets, want n!/|G|", name, len(counts))
			}
			per, uniform := tab.PerCoset(set)
			if wantUniform := slices.Min(counts) == slices.Max(counts); uniform != wantUniform || uniform && per != counts[0] {
				t.Fatalf("%s %v: PerCoset = (%d, %v), coset counts %v", name, above, per, uniform, counts)
			}
			if n < 2 {
				continue
			}
			a, b := r.IntN(n), r.IntN(n-1)
			if b >= a {
				b++
			}
			dst := make([]uint64, tab.Words())
			covers := tab.Restrict(dst, set, a, b)
			more := slices.Clone(above)
			more[b] |= 1 << a
			if want := tab.Satisfying(more); !slices.Equal(dst, want) {
				t.Fatalf("%s %v + %d>%d: Restrict differs from Satisfying", name, above, a, b)
			}
			if want := slices.Min(cosetCounts(n, group, more)) > 0; covers != want {
				t.Fatalf("%s %v + %d>%d: Restrict covers = %v, want %v", name, above, a, b, covers, want)
			}
		}
	}
}

// TestOrderTableLargest builds the table at its largest degree for the
// symmetric group (one coset spanning 630 words) and for a two-element
// group (20 160 two-bit lanes).
func TestOrderTableLargest(t *testing.T) {
	n := MaxTableDegree
	full := Closure([]Perm{{1, 0, 2, 3, 4, 5, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 0}})
	swap := Closure([]Perm{{1, 0, 2, 3, 4, 5, 6, 7}})
	chain := make([]uint16, n) // σ(0) > σ(1) > … > σ(7)
	for v := 1; v < n; v++ {
		chain[v] = 1 << (v - 1)
	}
	for _, tc := range []struct {
		name        string
		group       []Perm
		wantPer     int
		wantUniform bool
	}{
		{"S8", full, 1, true},
		{"C2", swap, 0, false},
	} {
		tab := NewOrderTable(n, tc.group)
		if tab.Count(tab.Satisfying(nil)) != Factorial(n) {
			t.Fatalf("%s: table does not hold all %d orders", tc.name, Factorial(n))
		}
		per, uniform := tab.PerCoset(tab.Satisfying(chain))
		if per != tc.wantPer || uniform != tc.wantUniform {
			t.Errorf("%s: the chain keeps (%d, %v) per coset, want (%d, %v)", tc.name, per, uniform, tc.wantPer, tc.wantUniform)
		}
	}
	// Under C2 = {id, (0 1)} an order and its swap share a coset, so
	// σ(0) > σ(1) keeps exactly one order of each.
	tab := NewOrderTable(n, swap)
	one := make([]uint16, n)
	one[1] = 1
	if per, uniform := tab.PerCoset(tab.Satisfying(one)); per != 1 || !uniform {
		t.Errorf("C2: σ(0) > σ(1) keeps (%d, %v) per coset, want (1, true)", per, uniform)
	}
}
