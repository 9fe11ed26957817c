// Package schedule implements GraphPi's 2-phase computation-avoid schedule
// generation (paper §IV-B).
//
// A schedule is an order in which the pattern's vertices are searched; a
// pattern with n vertices has n! candidate schedules, most of them
// inefficient. The generator:
//
//   - Phase 1 keeps only schedules whose every prefix induces a connected
//     subgraph of the pattern (otherwise some loop would traverse the whole
//     vertex set instead of an intersection of neighborhoods);
//   - Phase 2 keeps only schedules whose last k searched vertices are
//     pairwise non-adjacent, where k is the pattern's maximum independent
//     set size (pushing all intersection work out of the innermost loops);
//   - schedules equivalent up to a pattern automorphism explore identical
//     search trees, so only one representative per equivalence class is kept.
package schedule

import (
	"fmt"
	"strings"

	"graphpi/internal/pattern"
	"graphpi/internal/perm"
)

// Schedule is a search order over the pattern's vertices: Order[i] is the
// pattern vertex searched at depth i (the vertex of the i-th nested loop).
type Schedule struct {
	Order []uint8
}

func (s Schedule) String() string {
	parts := make([]string, len(s.Order))
	for i, v := range s.Order {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "→")
}

// Clone returns a deep copy.
func (s Schedule) Clone() Schedule {
	return Schedule{Order: append([]uint8(nil), s.Order...)}
}

// Position returns pos such that Order[pos] = v, or -1.
func (s Schedule) Position(v uint8) int {
	for i, u := range s.Order {
		if u == v {
			return i
		}
	}
	return -1
}

// SuffixIndependent returns the length of the longest schedule suffix whose
// vertices are pairwise non-adjacent in the pattern — the number of
// innermost loops with no intersection work, and the k usable by the IEP
// counting optimization for this schedule.
func (s Schedule) SuffixIndependent(p *pattern.Pattern) int {
	n := len(s.Order)
	var mask uint16
	for i := n - 1; i >= 0; i-- {
		v := s.Order[i]
		if p.NeighborMask(int(v))&mask != 0 {
			return n - 1 - i
		}
		mask |= 1 << v
	}
	return n
}

// Result carries the output of Generate.
type Result struct {
	// Efficient holds the surviving schedules, deterministically ordered.
	Efficient []Schedule
	// Eliminated holds the schedules removed by Phase 1 or Phase 2 (only
	// populated when Options.KeepEliminated is set; used to regenerate the
	// paper's Figure 9).
	Eliminated []Schedule
	// K is the pattern's maximum independent set size.
	K int
	// KEff is the Phase-2 threshold actually applied: the largest
	// independent suffix achievable by any prefix-connected schedule,
	// capped at K. For some patterns (the rectangle, the pentagon) no
	// connected schedule can end with K pairwise non-adjacent vertices —
	// the paper's "usually no intersection operation in the innermost k
	// loops" — so Phase 2 demands the best achievable suffix instead of
	// eliminating every schedule.
	KEff int
	// Classes is the total number of automorphism-equivalence classes of
	// schedules (|n!| / |Aut| for the dedup accounting).
	Classes int
}

// Options tunes Generate. The zero value applies GraphPi's defaults.
type Options struct {
	// KeepEliminated also returns the schedules the two phases removed.
	KeepEliminated bool
	// NoDedup disables automorphism-equivalence deduplication.
	NoDedup bool
	// Phase1Only disables the Phase-2 independent-suffix filter (the
	// GraphZero baseline generates connected schedules only).
	Phase1Only bool
}

// Generate enumerates all n! schedules of the pattern and applies the
// 2-phase filter. Equivalent schedules (differing by a pattern automorphism)
// are deduplicated to one lexicographically-smallest representative unless
// Options.NoDedup is set. Both filters are invariant under automorphisms, so
// a class is kept or dropped as a whole.
func Generate(p *pattern.Pattern, opts Options) Result {
	n := p.N()
	k := p.MaxIndependentSetSize()
	res := Result{K: k}
	var auts []perm.Perm
	if !opts.NoDedup {
		auts = p.Automorphisms()
	}

	// First pass: the Phase-2 threshold is the best independent suffix any
	// prefix-connected schedule achieves (capped at the pattern's k).
	kEff := 0
	order := make([]int, n)
	perm.ForEach(n, func(q perm.Perm) bool {
		for i := range order {
			order[i] = int(q[i])
		}
		if !p.PrefixConnected(order) {
			return true
		}
		s := Schedule{Order: q}
		if si := s.SuffixIndependent(p); si > kEff {
			kEff = si
		}
		return true
	})
	if kEff > k {
		kEff = k
	}
	res.KEff = kEff

	perm.ForEach(n, func(q perm.Perm) bool {
		if !opts.NoDedup && !representative(q, auts) {
			return true
		}
		res.Classes++
		s := Schedule{Order: append([]uint8(nil), q...)}
		for i := range order {
			order[i] = int(q[i])
		}
		ok := p.PrefixConnected(order)
		if ok && !opts.Phase1Only {
			ok = s.SuffixIndependent(p) >= kEff
		}
		if ok {
			res.Efficient = append(res.Efficient, s)
		} else if opts.KeepEliminated {
			res.Eliminated = append(res.Eliminated, s)
		}
		return true
	})
	return res
}

// representative reports whether q is the lexicographically smallest member
// of its class {a∘q : a ∈ auts}: schedules q and a∘q search isomorphic trees
// because relabeling by an automorphism preserves the pattern exactly, so one
// member per class suffices. a∘q is compared with q up to their first
// difference; nothing is materialised.
func representative(q perm.Perm, auts []perm.Perm) bool {
	for _, a := range auts {
		for _, v := range q {
			if a[v] != v {
				if a[v] < v {
					return false
				}
				break
			}
		}
	}
	return true
}

// RelabeledPattern returns the pattern with vertices renamed so that the
// vertex searched at depth i is named i. The execution engine and the cost
// model operate on this normalized form: after relabeling, the parents of
// depth i are simply i's pattern neighbors smaller than i.
func RelabeledPattern(p *pattern.Pattern, s Schedule) *pattern.Pattern {
	order := make([]int, p.N())
	for depth, v := range s.Order {
		order[v] = depth // vertex v gets new name = its depth
	}
	return p.Relabel(order)
}

// MapRestrictions rewrites restrictions expressed on pattern vertices into
// restrictions on schedule positions (the names used by the relabeled
// pattern and the engine).
func MapRestrictions(s Schedule, firstSecond [][2]uint8) [][2]uint8 {
	pos := make([]uint8, len(s.Order))
	for depth, v := range s.Order {
		pos[v] = uint8(depth)
	}
	out := make([][2]uint8, len(firstSecond))
	for i, r := range firstSecond {
		out[i] = [2]uint8{pos[r[0]], pos[r[1]]}
	}
	return out
}
