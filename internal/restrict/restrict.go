// Package restrict implements GraphPi's 2-cycle based automorphism
// elimination (paper §IV-A, Algorithm 1).
//
// A restriction id(u) > id(v) is a partial order on the data-graph ids bound
// to two pattern vertices. A set of restrictions is *complete* when, out of
// each class of automorphic embeddings, exactly one member satisfies the
// whole set — eliminating all redundant computation without losing results.
//
// Unlike prior systems (GraphZero generates exactly one set), Algorithm 1
// generates *many* complete sets by branching over the 2-cycles of the
// pattern's automorphism group; the performance model then picks the set
// that prunes the chosen schedule best. This package also implements the
// GraphZero-style single-set generator used as a baseline in the paper's
// Table II.
package restrict

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"graphpi/internal/pattern"
	"graphpi/internal/perm"
)

// Restriction asserts id(First) > id(Second) for the data-graph vertices
// bound to the two pattern vertices.
type Restriction struct {
	First, Second uint8
}

func (r Restriction) String() string {
	return fmt.Sprintf("id(%d)>id(%d)", r.First, r.Second)
}

// Set is a set of restrictions, kept sorted in canonical order.
type Set []Restriction

// Canonicalize sorts the set and removes duplicates, returning the receiver.
func (s Set) Canonicalize() Set {
	sort.Slice(s, func(i, j int) bool {
		if s[i].First != s[j].First {
			return s[i].First < s[j].First
		}
		return s[i].Second < s[j].Second
	})
	out := s[:0]
	for i, r := range s {
		if i == 0 || r != s[i-1] {
			out = append(out, r)
		}
	}
	return out
}

// Clone returns a copy of s.
func (s Set) Clone() Set { return append(Set(nil), s...) }

func (s Set) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// key returns a canonical map key; s must already be canonicalized.
func (s Set) key() string {
	b := make([]byte, 0, 2*len(s))
	for _, r := range s {
		b = append(b, r.First, r.Second)
	}
	return string(b)
}

// Consistent reports whether the restriction set is satisfiable on its own,
// i.e. its ">" digraph is acyclic. An inconsistent set would eliminate every
// embedding including the canonical representative.
func (s Set) Consistent(n int) bool {
	greater := s.greater()
	return acyclic(n, &greater)
}

// greater returns the set as bitmasks: bit u of greater[v] is set when the
// set demands id(u) > id(v).
func (s Set) greater() (greater [perm.MaxDegree]uint16) {
	for _, r := range s {
		greater[r.Second] |= 1 << r.First
	}
	return greater
}

// eliminates reports whether the permutation p (an automorphism of the
// pattern) is eliminated by the restriction set s, whose greater masks are
// greater: no id assignment can satisfy the restrictions for both an
// embedding and its p-image. This is the complement of the paper's
// no_conflict: the directed graph with edges (a→b) and (p(a)→p(b)) for every
// restriction id(a)>id(b) has a cycle.
func eliminates(greater [perm.MaxDegree]uint16, s []Restriction, p perm.Perm) bool {
	for _, r := range s {
		greater[p[r.Second]] |= 1 << p[r.First]
	}
	return !acyclic(len(p), &greater)
}

// fromGreater is the canonical set whose greater masks are greater.
func fromGreater(n int, greater *[perm.MaxDegree]uint16) Set {
	var s Set
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if greater[b]&(1<<a) != 0 {
				s = append(s, Restriction{First: uint8(a), Second: uint8(b)})
			}
		}
	}
	return s
}

// acyclic reports whether the digraph on {0,…,n-1} with an edge u→v for every
// bit u of greater[v] has no cycle, by peeling off vertices that no remaining
// vertex points at until none is left or none can go.
func acyclic(n int, greater *[perm.MaxDegree]uint16) bool {
	alive := uint16(1)<<n - 1
	for alive != 0 {
		before := alive
		for m := alive; m != 0; m &= m - 1 {
			v := bits.TrailingZeros16(m)
			if greater[v]&alive == 0 {
				alive &^= 1 << v
			}
		}
		if alive == before {
			return false
		}
	}
	return true
}

// Options tunes Generate. The zero value applies the defaults below.
type Options struct {
	// MaxSets caps the number of restriction sets returned (0 → 64). The
	// branching recursion of Algorithm 1 can produce a combinatorial number
	// of equivalent sets for highly symmetric patterns (K7 has 5040
	// automorphisms); the performance model only needs a diverse sample.
	MaxSets int
	// FirstPermOnly restricts branching to the 2-cycles of the first
	// remaining non-identity permutation instead of all remaining
	// permutations. Automatically enabled for groups larger than
	// firstPermThreshold to bound the search.
	FirstPermOnly bool
}

const (
	defaultMaxSets     = 64
	firstPermThreshold = 64
)

// Generate runs Algorithm 1: it returns multiple complete restriction sets
// for the pattern, each validated to reduce the automorphism count to
// exactly one. The result is deterministic and sorted (smallest sets first).
// A pattern with a trivial automorphism group yields one empty set. The
// search cuts on the pattern's order table, so a pattern above
// perm.MaxTableDegree vertices is an error; GraphZeroSet covers those.
func Generate(pat *pattern.Pattern, opts Options) ([]Set, error) {
	n := pat.N()
	if n > perm.MaxTableDegree {
		return nil, fmt.Errorf("restrict: %s has %d vertices; Algorithm 1 searches patterns of at most %d", pat, n, perm.MaxTableDegree)
	}
	if opts.MaxSets <= 0 {
		opts.MaxSets = defaultMaxSets
	}
	auts := pat.Automorphisms()
	if len(auts) > firstPermThreshold {
		opts.FirstPermOnly = true
	}
	g := &generator{
		n:         n,
		auts:      auts,
		opts:      opts,
		visited:   map[[perm.MaxDegree]uint16]bool{},
		results:   map[[perm.MaxDegree]uint16]Set{},
		remaining: make([][]int32, 1),
	}
	if len(auts) > 1 {
		g.table = pat.OrderTable()
		g.orders = [][]uint64{g.table.Satisfying(nil)}
	}
	all := make([]int32, len(auts))
	for i := range all {
		all[i] = int32(i)
	}
	g.generate(all, [perm.MaxDegree]uint16{}, 0)
	if len(g.results) == 0 {
		return nil, fmt.Errorf("restrict: no valid restriction set found for %s", pat)
	}
	out := make([]Set, 0, len(g.results))
	for _, s := range g.results {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].key() < out[j].key()
	})
	// Validate every returned set on the complete graph (paper's validate
	// step); construction should make this a no-op, so a failure is a bug.
	for _, s := range out {
		if err := Validate(pat, s); err != nil {
			return nil, fmt.Errorf("restrict: generated set failed validation: %w", err)
		}
	}
	return out, nil
}

type generator struct {
	n    int
	auts []perm.Perm
	opts Options
	// table is the pattern's order table (nil for a trivial group, which
	// needs no search); orders[d] holds the orders a search node at depth d
	// keeps, remaining[d] its surviving automorphisms and path[:d] its
	// restrictions in the order they were added.
	table     *perm.OrderTable
	orders    [][]uint64
	remaining [][]int32
	path      []Restriction
	// Sets are keyed by their greater masks (Set.greater).
	visited map[[perm.MaxDegree]uint16]bool
	results map[[perm.MaxDegree]uint16]Set
}

// generate is the recursive core of Algorithm 1. pg indexes the
// automorphisms not yet eliminated (always including the identity);
// greater holds the restriction set built so far at search depth depth.
//
// A complete set keeps exactly one relative order in each automorphism coset
// (σ ~ σ∘a): two in one coset would leave the automorphism between them
// uneliminated. A restriction can only remove orders, so a child that
// leaves a coset empty has no complete set below it and is dropped without
// being searched; that covers the child that contradicts itself (it keeps
// none).
func (g *generator) generate(pg []int32, greater [perm.MaxDegree]uint16, depth int) {
	if len(g.results) >= g.opts.MaxSets {
		return
	}
	if len(pg) <= 1 {
		// Only the identity remains: the set eliminates every automorphism.
		// Per Algorithm 1 this leaf still runs validate(res_set): a set can
		// kill all automorphisms yet also kill entire embedding classes
		// (keep fewer than n!/|Aut| relative orders). The coset cut has
		// settled it: no coset is empty, and none keeps two orders, or the
		// automorphism between them would remain.
		g.results[greater] = fromGreater(g.n, &greater)
		return
	}
	if depth+1 == len(g.remaining) {
		g.remaining = append(g.remaining, make([]int32, 0, len(pg)))
		g.orders = append(g.orders, make([]uint64, g.table.Words()))
	}
	for _, cand := range g.candidates(pg) {
		if len(g.results) >= g.opts.MaxSets {
			return
		}
		a, b := cand.First, cand.Second
		if greater[b]&(1<<a) != 0 {
			continue // duplicate restriction
		}
		next := greater
		next[b] |= 1 << a
		if g.visited[next] {
			continue
		}
		g.visited[next] = true
		if !g.table.Restrict(g.orders[depth+1], g.orders[depth], int(a), int(b)) {
			continue
		}
		g.path = append(g.path[:depth], cand)
		remaining := g.remaining[depth+1][:0]
		for _, p := range pg {
			if !eliminates(next, g.path, g.auts[p]) {
				remaining = append(remaining, p)
			}
		}
		g.remaining[depth+1] = remaining
		g.generate(remaining, next, depth+1)
	}
}

// candidates returns the branching choices at this node: the oriented
// 2-cycle pairs of the remaining permutations (the paper's essential
// elements). If no remaining permutation has a 2-cycle in its disjoint-cycle
// decomposition (possible only for groups such as C3 that contain no
// involution with a transposition), it falls back to (v, p(v)) pairs of the
// first non-identity permutation, which the DAG-based elimination handles
// soundly; validation still guarantees correctness.
func (g *generator) candidates(pg []int32) []Restriction {
	// Bit b of pairs[a] stands for the candidate id(a)>id(b); reading the
	// masks in order yields the candidates sorted and without duplicates.
	var pairs [perm.MaxDegree]uint16
	found := false
	for _, i := range pg {
		for _, tc := range g.auts[i].TwoCycles() {
			pairs[tc[0]] |= 1 << tc[1]
			pairs[tc[1]] |= 1 << tc[0]
			found = true
		}
		if g.opts.FirstPermOnly && found {
			break
		}
	}
	if !found {
		for _, i := range pg {
			p := g.auts[i]
			if p.IsIdentity() {
				continue
			}
			for v, w := range p {
				if int(w) != v {
					pairs[v] |= 1 << w
					pairs[w] |= 1 << v
				}
			}
			break
		}
	}
	var out []Restriction
	for a := 0; a < g.n; a++ {
		for m := pairs[a]; m != 0; m &= m - 1 {
			out = append(out, Restriction{First: uint8(a), Second: uint8(bits.TrailingZeros16(m))})
		}
	}
	return out
}

// CountOrderSurvivors counts the permutations σ of {0,…,n-1} (interpreted
// as relative magnitudes of the ids bound to the n pattern vertices) that
// satisfy every restriction: σ(First) > σ(Second). This implements the
// paper's validate step in closed combinatorial form: matching a pattern
// with n vertices on the complete graph K_n admits every injective map, so
// the restricted count must equal n!/|Aut|.
func CountOrderSurvivors(n int, s Set) int64 {
	greater := s.greater()
	return perm.CountOrders(greater[:n], nil)
}

// Validate checks that the restriction set is complete and exact for the
// pattern: every non-identity automorphism is eliminated, the identity
// survives, and the complete-graph count equals n!/|Aut| (paper §IV-A).
//
// Up to perm.MaxTableDegree vertices that is one test on the pattern's
// order table: the set must keep exactly one relative order in each
// automorphism coset. Two kept orders σ, σ∘a of one coset would let the
// automorphism a survive; with at most one per coset, n!/|Aut| kept orders
// hit every coset. Larger patterns are checked automorphism by automorphism.
func Validate(pat *pattern.Pattern, s Set) error {
	n := pat.N()
	if !s.Consistent(n) {
		return fmt.Errorf("restrict: set %v is self-contradictory", s)
	}
	auts := pat.Automorphisms()
	greater := s.greater()
	want := perm.Factorial(n) / int64(len(auts))
	if t := pat.OrderTable(); t != nil {
		orders := t.Satisfying(greater[:n])
		if per, uniform := t.PerCoset(orders); !uniform || per != 1 {
			return fmt.Errorf("restrict: set %v keeps %d of %d relative orders, not one in each of %d automorphism cosets",
				s, t.Count(orders), perm.Factorial(n), want)
		}
		return nil
	}
	for _, a := range auts {
		if !a.IsIdentity() && !eliminates(greater, s, a) {
			return fmt.Errorf("restrict: set %v fails to eliminate automorphism %v", s, a)
		}
	}
	if got := CountOrderSurvivors(n, s); got != want {
		return fmt.Errorf("restrict: set %v keeps %d of %d relative orders, want %d",
			s, got, perm.Factorial(n), want)
	}
	return nil
}

// GraphZeroSet generates the single canonical restriction set of the
// GraphZero baseline via a stabilizer chain: for each vertex v in order, add
// id(v) < id(w) for every w ≠ v in v's orbit under the current stabilizer
// subgroup, then descend into the stabilizer of v. This reproduces the
// restriction output GraphPi's evaluation compares against in Table II.
func GraphZeroSet(pat *pattern.Pattern) Set {
	group := pat.Automorphisms()
	var out Set
	n := pat.N()
	for v := 0; v < n && len(group) > 1; v++ {
		inOrbit := map[uint8]bool{}
		for _, p := range group {
			if p[v] != uint8(v) {
				inOrbit[p[v]] = true
			}
		}
		for w := range inOrbit {
			// id(v) < id(w)  ⇔  id(w) > id(v)
			out = append(out, Restriction{First: w, Second: uint8(v)})
		}
		var stab []perm.Perm
		for _, p := range group {
			if p[v] == uint8(v) {
				stab = append(stab, p)
			}
		}
		group = stab
	}
	return out.Canonicalize()
}
