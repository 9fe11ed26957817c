package restrict

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"graphpi/internal/pattern"
	"graphpi/internal/perm"
)

// Eliminates reports whether the set eliminates the permutation p (see
// eliminates).
func (s Set) Eliminates(p perm.Perm) bool { return eliminates(s.greater(), s, p) }

func TestSetCanonicalize(t *testing.T) {
	s := Set{{2, 1}, {0, 1}, {2, 1}, {0, 2}}
	s = s.Canonicalize()
	want := Set{{0, 1}, {0, 2}, {2, 1}}
	if len(s) != len(want) {
		t.Fatalf("Canonicalize = %v, want %v", s, want)
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("Canonicalize = %v, want %v", s, want)
		}
	}
}

func TestConsistent(t *testing.T) {
	if !(Set{{0, 1}, {1, 2}}).Consistent(3) {
		t.Error("chain reported inconsistent")
	}
	if (Set{{0, 1}, {1, 2}, {2, 0}}).Consistent(3) {
		t.Error("3-cycle reported consistent")
	}
	if !(Set{}).Consistent(4) {
		t.Error("empty set inconsistent")
	}
}

func TestEliminatesRectangleExample(t *testing.T) {
	// The paper's Figure 4 walkthrough: for the rectangle pattern, the two
	// restrictions id(B)>id(D) and id(A)>id(C) eliminate the 4-cycle
	// permutation ② = (A,D,C,B). With A,B,C,D = 0,1,2,3:
	s := Set{{1, 3}, {0, 2}}
	p := perm.Perm{3, 0, 1, 2} // A→D, B→A, C→B, D→C  i.e. (A D C B)
	if !s.Eliminates(p) {
		t.Error("restrictions {B>D, A>C} do not eliminate (A D C B)")
	}
	// A single restriction id(B)>id(D) eliminates (A)(B,D)(C).
	s1 := Set{{1, 3}}
	bd := perm.Perm{0, 3, 2, 1}
	if !s1.Eliminates(bd) {
		t.Error("restriction B>D does not eliminate (B D)")
	}
	// But not the identity.
	if s1.Eliminates(perm.Identity(4)) {
		t.Error("restriction B>D eliminates the identity")
	}
	// And a restriction on untouched vertices does not eliminate (B D).
	if (Set{{0, 2}}).Eliminates(bd) {
		t.Error("restriction A>C should not eliminate (B D)")
	}
}

func TestCountOrderSurvivors(t *testing.T) {
	// One restriction halves the n! orders (paper: f1 = 1/2 for A>B).
	if got := CountOrderSurvivors(5, Set{{0, 1}}); got != 60 {
		t.Errorf("survivors with one restriction = %d, want 60", got)
	}
	if got := CountOrderSurvivors(3, nil); got != 6 {
		t.Errorf("survivors with no restriction = %d, want 6", got)
	}
	// A full chain forces one order.
	chain := Set{{0, 1}, {1, 2}, {2, 3}}
	if got := CountOrderSurvivors(4, chain); got != 1 {
		t.Errorf("survivors with full chain = %d, want 1", got)
	}
}

// namedPatterns are the named patterns the package's tests sweep.
func namedPatterns() []*pattern.Pattern {
	ps := []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.Pentagon(),
		pattern.House(), pattern.Cycle6Tri(), pattern.Prism(),
		pattern.Clique(4), pattern.Clique(5), pattern.CliqueMinus(5),
		pattern.CompleteBipartite(2, 3), pattern.StarN(5), pattern.PathN(5),
		pattern.CycleN(6), pattern.Clique(6),
	}
	return ps
}

func TestGenerateProducesValidSets(t *testing.T) {
	for _, p := range namedPatterns() {
		sets, err := Generate(p, Options{MaxSets: 16})
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(sets) == 0 {
			t.Errorf("%s: no sets", p)
		}
		for _, s := range sets {
			if err := Validate(p, s); err != nil {
				t.Errorf("%s: %v", p, err)
			}
		}
	}
}

func TestGenerateMultipleSets(t *testing.T) {
	// The headline claim of §IV-A: unlike GraphZero, Algorithm 1 yields
	// multiple different complete sets for symmetric patterns.
	for _, p := range []*pattern.Pattern{
		pattern.Rectangle(), pattern.Pentagon(), pattern.House(),
		pattern.CompleteBipartite(2, 3),
	} {
		sets, err := Generate(p, Options{MaxSets: 64})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(sets) < 2 {
			t.Errorf("%s: got %d restriction sets, want ≥ 2", p, len(sets))
		}
		// All distinct.
		seen := map[string]bool{}
		for _, s := range sets {
			k := s.key()
			if seen[k] {
				t.Errorf("%s: duplicate set %v", p, s)
			}
			seen[k] = true
		}
	}
}

func TestGenerateTrivialGroup(t *testing.T) {
	// A pattern with only the identity automorphism needs no restrictions.
	asym := pattern.MustNew(6, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 2}, {2, 4}, {0, 3},
	}, "asym")
	if len(asym.Automorphisms()) != 1 {
		t.Skip("fixture is unexpectedly symmetric")
	}
	sets, err := Generate(asym, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 0 {
		t.Errorf("trivial group: sets = %v, want one empty set", sets)
	}
}

func TestGenerateRespectsMaxSets(t *testing.T) {
	sets, err := Generate(pattern.Clique(5), Options{MaxSets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) > 3 {
		t.Errorf("MaxSets=3 returned %d sets", len(sets))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(pattern.House(), Options{MaxSets: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(pattern.House(), Options{MaxSets: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic set count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].key() != b[i].key() {
			t.Fatalf("nondeterministic set %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGraphZeroSetValid(t *testing.T) {
	for _, p := range namedPatterns() {
		s := GraphZeroSet(p)
		if err := Validate(p, s); err != nil {
			t.Errorf("%s: GraphZero set invalid: %v", p, err)
		}
	}
}

func TestGraphZeroSingleVsGraphPiMany(t *testing.T) {
	p := pattern.Rectangle()
	gz := GraphZeroSet(p)
	sets, err := Generate(p, Options{MaxSets: 64})
	if err != nil {
		t.Fatal(err)
	}
	// GraphZero produces one set; GraphPi's generator must offer strictly
	// more choice for the rectangle (|Aut| = 8).
	if len(sets) <= 1 {
		t.Errorf("expected multiple sets for rectangle, got %d", len(sets))
	}
	if err := Validate(p, gz); err != nil {
		t.Errorf("GraphZero set invalid: %v", err)
	}
}

func TestValidateRejectsBadSets(t *testing.T) {
	p := pattern.Rectangle()
	// Too weak: a single restriction cannot kill all 7 non-identity
	// automorphisms of the rectangle.
	if err := Validate(p, Set{{0, 1}}); err == nil {
		t.Error("undersized set accepted")
	}
	// Contradictory.
	if err := Validate(p, Set{{0, 1}, {1, 0}}); err == nil {
		t.Error("contradictory set accepted")
	}
	// Over-restrictive: a full chain keeps only 1 of 24 orders but
	// 24/8 = 3 are required.
	if err := Validate(p, Set{{0, 1}, {1, 2}, {2, 3}}); err == nil {
		t.Error("over-restrictive set accepted")
	}
}

func TestRandomPatternsRoundTrip(t *testing.T) {
	// Property: for random connected patterns, Generate yields only sets
	// that Validate accepts, and the GraphZero set is valid too.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 31))
		n := 3 + r.IntN(4)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.55 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		p := pattern.MustNew(n, edges, "rand")
		if !p.Connected() {
			return true // only connected patterns are matched
		}
		sets, err := Generate(p, Options{MaxSets: 8})
		if err != nil {
			return false
		}
		for _, s := range sets {
			if Validate(p, s) != nil {
				return false
			}
		}
		return Validate(p, GraphZeroSet(p)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := Set{{1, 0}}
	if s.String() != "{id(1)>id(0)}" {
		t.Errorf("String = %q", s.String())
	}
	if (Set{}).String() != "{}" {
		t.Errorf("empty String = %q", (Set{}).String())
	}
}

// TestLargeGroupClique7: cliques have the largest groups (K7 has 5040
// automorphisms); generation must stay bounded and correct at K7 and at K8 —
// the order table's largest degree, where one coset spans 630 words. Every
// set is checked against the enumerating reference. A 9-vertex pattern has
// no table: Generate refuses it, and Validate checks GraphZeroSet's set for
// it automorphism by automorphism.
func TestLargeGroupClique7(t *testing.T) {
	for _, tc := range []struct {
		pat     *pattern.Pattern
		minSize int // a complete set for K_n pins a total order: n-1 restrictions at least
	}{
		{pattern.Clique(7), 6},
		{pattern.Clique(8), 7},
	} {
		p := tc.pat
		sets, err := Generate(p, Options{MaxSets: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) == 0 {
			t.Fatalf("no sets for %s", p)
		}
		for _, s := range sets {
			if err := Validate(p, s); err != nil {
				t.Error(err)
			}
			if !refValidate(p, s) {
				t.Errorf("%s: reference rejects %v", p, s)
			}
			if len(s) < tc.minSize {
				t.Errorf("%s set too small: %v", p, s)
			}
			// One restriction fewer is complete only if the rest imply it.
			short := append(s[:0:0], s[1:]...)
			if got, want := Validate(p, short) == nil, refValidate(p, short); got != want {
				t.Errorf("%s: Validate accepts %v: %v, reference %v", p, short, got, want)
			}
		}
	}
	k45 := pattern.CompleteBipartite(4, 5)
	if _, err := Generate(k45, Options{}); err == nil {
		t.Errorf("Generate searched %s without an order table", k45)
	}
	s := GraphZeroSet(k45)
	if err := Validate(k45, s); err != nil || !refValidate(k45, s) {
		t.Errorf("%s: GraphZeroSet %v: Validate %v, reference %v", k45, s, err, refValidate(k45, s))
	}
	short := s[1:]
	if got, want := Validate(k45, short) == nil, refValidate(k45, short); got != want {
		t.Errorf("%s: Validate accepts %v: %v, reference %v", k45, short, got, want)
	}
}
