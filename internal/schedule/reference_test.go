package schedule

import (
	"fmt"
	"slices"
	"testing"

	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/perm"
)

// canonicalKey returns the lexicographically smallest byte string among
// {a∘q : a ∈ auts}, the class key Generate deduplicated on (through a map of
// seen keys) before it tested for the class representative directly.
func canonicalKey(q perm.Perm, auts []perm.Perm) string {
	best := ""
	buf := make([]byte, len(q))
	for _, a := range auts {
		for i, v := range q {
			buf[i] = a[v]
		}
		if best == "" || string(buf) < best {
			best = string(buf)
		}
	}
	return best
}

// refGenerate is Generate as it was with the seen-key map, the oracle for the
// map-free version.
func refGenerate(p *pattern.Pattern, opts Options) Result {
	n := p.N()
	k := p.MaxIndependentSetSize()
	res := Result{K: k}
	var auts []perm.Perm
	if !opts.NoDedup {
		auts = p.Automorphisms()
	}
	kEff := 0
	order := make([]int, n)
	perm.ForEach(n, func(q perm.Perm) bool {
		for i := range order {
			order[i] = int(q[i])
		}
		if !p.PrefixConnected(order) {
			return true
		}
		if si := (Schedule{Order: q}).SuffixIndependent(p); si > kEff {
			kEff = si
		}
		return true
	})
	res.KEff = min(kEff, k)

	seen := map[string]bool{}
	perm.ForEach(n, func(q perm.Perm) bool {
		if !opts.NoDedup {
			key := canonicalKey(q, auts)
			if seen[key] {
				return true
			}
			seen[key] = true
		}
		res.Classes++
		s := Schedule{Order: append([]uint8(nil), q...)}
		for i := range order {
			order[i] = int(q[i])
		}
		ok := p.PrefixConnected(order)
		if ok && !opts.Phase1Only {
			ok = s.SuffixIndependent(p) >= res.KEff
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

func sameSchedules(a, b []Schedule) bool {
	return slices.EqualFunc(a, b, func(x, y Schedule) bool { return slices.Equal(x.Order, y.Order) })
}

func TestGenerateMatchesReference(t *testing.T) {
	maxMotif := 6
	if testing.Short() {
		maxMotif = 5
	}
	for _, np := range patterntest.Suite(maxMotif) {
		for mask := 0; mask < 8; mask++ {
			opts := Options{NoDedup: mask&1 != 0, Phase1Only: mask&2 != 0, KeepEliminated: mask&4 != 0}
			if opts.KeepEliminated && np.Pat.N() > 6 {
				continue // n! retained schedules per arm
			}
			got, want := Generate(np.Pat, opts), refGenerate(np.Pat, opts)
			at := fmt.Sprintf("%s %+v", np.Name, opts)
			if got.K != want.K || got.KEff != want.KEff || got.Classes != want.Classes {
				t.Errorf("%s: K/KEff/Classes = %d/%d/%d, reference %d/%d/%d", at,
					got.K, got.KEff, got.Classes, want.K, want.KEff, want.Classes)
			}
			if !sameSchedules(got.Efficient, want.Efficient) {
				t.Errorf("%s: Efficient differs (%d schedules, reference %d)", at, len(got.Efficient), len(want.Efficient))
			}
			if !sameSchedules(got.Eliminated, want.Eliminated) {
				t.Errorf("%s: Eliminated differs (%d schedules, reference %d)", at, len(got.Eliminated), len(want.Eliminated))
			}
		}
	}
}
