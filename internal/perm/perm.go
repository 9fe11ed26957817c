// Package perm implements permutations and permutation groups over small
// index sets. It is the group-theoretic substrate of GraphPi's 2-cycle based
// automorphism elimination (paper §IV-A): every automorphism of a pattern is
// a permutation of its vertices; all automorphisms form a permutation group;
// and any permutation decomposes into disjoint cycles, whose 2-cycles are
// "the most essential elements" the restriction generator operates on.
package perm

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxDegree bounds the size of the index set a Perm may act on. Patterns in
// GraphPi are small (the paper evaluates up to 7 vertices); 16 leaves
// generous headroom while keeping Perm values cheap to copy.
const MaxDegree = 16

// Perm is a permutation of {0, …, n-1}: p[i] is the image of i.
type Perm []uint8

// Identity returns the identity permutation on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = uint8(i)
	}
	return p
}

// Valid reports whether p is a well-formed permutation (a bijection on
// {0, …, len(p)-1}).
func (p Perm) Valid() bool {
	if len(p) > MaxDegree {
		return false
	}
	var seen [MaxDegree]bool
	for _, v := range p {
		if int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// IsIdentity reports whether p fixes every point.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if int(v) != i {
			return false
		}
	}
	return true
}

// Compose returns the permutation r with r(i) = p(q(i)).
func Compose(p, q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: composing permutations of different degree")
	}
	r := make(Perm, len(p))
	for i := range q {
		r[i] = p[q[i]]
	}
	return r
}

// Inverse returns p⁻¹.
func (p Perm) Inverse() Perm {
	r := make(Perm, len(p))
	for i, v := range p {
		r[v] = uint8(i)
	}
	return r
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	return append(Perm(nil), p...)
}

// Cycles returns the disjoint-cycle decomposition of p, omitting fixed
// points (1-cycles). Each cycle starts at its smallest element; cycles are
// ordered by that element.
func (p Perm) Cycles() [][]uint8 {
	var cycles [][]uint8
	var seen [MaxDegree]bool
	for i := range p {
		if seen[i] || int(p[i]) == i {
			continue
		}
		var cyc []uint8
		for j := uint8(i); !seen[j]; j = p[j] {
			seen[j] = true
			cyc = append(cyc, j)
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// TwoCycles returns every 2-cycle (transposition) in the disjoint-cycle
// decomposition of p: pairs (i, j) with i < j, p(i) = j and p(j) = i.
// These are the pairs Algorithm 1 places restrictions on ("if vertex =
// perm[perm[vertex]] … a 2-cycle is found").
func (p Perm) TwoCycles() [][2]uint8 {
	var out [][2]uint8
	for i := range p {
		j := p[i]
		if int(j) > i && int(p[j]) == i {
			out = append(out, [2]uint8{uint8(i), j})
		}
	}
	return out
}

// String renders p in disjoint-cycle notation, e.g. "(0 2)(1 3)"; the
// identity renders as "()".
func (p Perm) String() string {
	cycles := p.Cycles()
	if len(cycles) == 0 {
		return "()"
	}
	var b strings.Builder
	for _, cyc := range cycles {
		b.WriteByte('(')
		for i, v := range cyc {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// key packs p for use as a map key.
func (p Perm) key() string { return string(p) }

// Closure returns the group generated by gens (always containing the
// identity), sorted lexicographically. All generators must share a degree.
// Used by tests to confirm that pattern automorphisms form a group.
//
// Generators are taken one at a time and one already inside the group built
// so far is skipped, so a redundant generating set (a whole automorphism
// list, say) costs one lookup per generator, not a pass over the group.
func Closure(gens []Perm) []Perm {
	if len(gens) == 0 {
		return nil
	}
	n := len(gens[0])
	id := Identity(n)
	seen := map[string]bool{id.key(): true}
	elems := []Perm{id}
	scratch := make(Perm, n)
	var active []Perm
	for _, g := range gens {
		if len(g) != n {
			panic("perm: composing permutations of different degree")
		}
		if int64(len(elems)) == Factorial(n) {
			break // already the whole symmetric group
		}
		if seen[string(g)] {
			continue
		}
		active = append(active, g)
		// elems[:old] is a group closed under active[:len-1]: those elements
		// need only meet the new generator, the ones found from here on all
		// of them.
		old := len(elems)
		for i := 0; i < len(elems); i++ {
			todo := active
			if i < old {
				todo = active[len(active)-1:]
			}
			for _, a := range todo {
				for j, v := range elems[i] {
					scratch[j] = a[v]
				}
				if !seen[string(scratch)] {
					next := scratch.Clone()
					seen[next.key()] = true
					elems = append(elems, next)
				}
			}
		}
	}
	Sort(elems)
	return elems
}

// Sort orders permutations lexicographically in place.
func Sort(ps []Perm) {
	sort.Slice(ps, func(i, j int) bool {
		return strings.Compare(string(ps[i]), string(ps[j])) < 0
	})
}

// ForEach enumerates all n! permutations of {0,…,n-1} in lexicographic
// order, invoking visit for each. The Perm passed to visit is reused between
// calls; clone it to retain. Enumeration stops early if visit returns false.
func ForEach(n int, visit func(Perm) bool) {
	if n > MaxDegree {
		panic(fmt.Sprintf("perm: degree %d exceeds MaxDegree", n))
	}
	p := Identity(n)
	for {
		if !visit(p) {
			return
		}
		// Next lexicographic permutation.
		i := n - 2
		for i >= 0 && p[i] >= p[i+1] {
			i--
		}
		if i < 0 {
			return
		}
		j := n - 1
		for p[j] <= p[i] {
			j--
		}
		p[i], p[j] = p[j], p[i]
		for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
			p[l], p[r] = p[r], p[l]
		}
	}
}

// Factorial returns n! for n ≤ 20 (fits in int64; patterns never exceed
// MaxDegree anyway).
func Factorial(n int) int64 {
	if n < 0 || n > 20 {
		panic(fmt.Sprintf("perm: factorial(%d) out of range", n))
	}
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// CountOrders counts the relative orders of n = len(above) elements that
// respect a "must be greater" relation: above[v] is the bitmask of elements
// whose value must exceed v's. The result is the number of permutations σ of
// {0,…,n-1} with σ(u) > σ(v) whenever above[v] has bit u — the linear
// extensions of the relation, 0 if it is cyclic.
//
// If prefix is non-nil it must have length n, and prefix[i] receives the same
// count for the elements {0,…,i} under the constraints among them alone.
//
// f[S], the number of orders of subset S under the constraints inside S,
// follows from choosing S's greatest element v, which nothing in S may be
// required to exceed: f[S] = Σ_{v∈S, above[v]∩S=∅} f[S∖v]. That is 2ⁿ·n steps
// where enumerating the orders is n!·|constraints|.
func CountOrders(above []uint16, prefix []int64) int64 {
	n := len(above)
	if n > MaxDegree {
		panic(fmt.Sprintf("perm: degree %d exceeds MaxDegree", n))
	}
	var small [1 << 8]int64
	f := small[:]
	if n > 8 {
		f = make([]int64, 1<<n)
	}
	f[0] = 1
	for s := 1; s < 1<<n; s++ {
		var c int64
		for m := s; m != 0; m &= m - 1 {
			v := bits.TrailingZeros(uint(m))
			if int(above[v])&s == 0 {
				c += f[s&^(1<<v)]
			}
		}
		f[s] = c
	}
	for i := range prefix {
		prefix[i] = f[1<<(i+1)-1]
	}
	return f[1<<n-1]
}
