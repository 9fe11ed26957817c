package schedule

import (
	"testing"

	"graphpi/internal/pattern"
	"graphpi/internal/perm"
)

func TestSuffixIndependent(t *testing.T) {
	h := pattern.House()
	// Schedule 0,1,2,3,4: last two searched are 3 and 4, which are not
	// adjacent in the House → suffix 2 (matches the paper: D and E are
	// searched in the innermost 2 loops).
	s := Schedule{Order: []uint8{0, 1, 2, 3, 4}}
	if got := s.SuffixIndependent(h); got != 2 {
		t.Errorf("SuffixIndependent = %d, want 2", got)
	}
	// Schedule ending with adjacent vertices 0,1 → suffix 1.
	s2 := Schedule{Order: []uint8{3, 2, 4, 0, 1}}
	if got := s2.SuffixIndependent(h); got != 1 {
		t.Errorf("SuffixIndependent = %d, want 1", got)
	}
	// Cycle6Tri ending with its independent triple {3,4,5} → 3.
	c := pattern.Cycle6Tri()
	s3 := Schedule{Order: []uint8{0, 1, 2, 3, 4, 5}}
	if got := s3.SuffixIndependent(c); got != 3 {
		t.Errorf("Cycle6Tri SuffixIndependent = %d, want 3", got)
	}
}

func TestGeneratePhase1(t *testing.T) {
	h := pattern.House()
	res := Generate(h, Options{KeepEliminated: true, NoDedup: true})
	if res.Classes != 120 {
		t.Errorf("Classes = %d, want 120 (no dedup)", res.Classes)
	}
	if len(res.Efficient)+len(res.Eliminated) != 120 {
		t.Errorf("efficient %d + eliminated %d != 120",
			len(res.Efficient), len(res.Eliminated))
	}
	// Every efficient schedule is prefix-connected and has independent
	// suffix ≥ k.
	order := make([]int, h.N())
	for _, s := range res.Efficient {
		for i, v := range s.Order {
			order[i] = int(v)
		}
		if !h.PrefixConnected(order) {
			t.Errorf("schedule %v not prefix connected", s)
		}
		if s.SuffixIndependent(h) < res.KEff {
			t.Errorf("schedule %v suffix %d < kEff=%d", s, s.SuffixIndependent(h), res.KEff)
		}
	}
	if res.K != 2 || res.KEff != 2 {
		t.Errorf("House k=%d kEff=%d, want 2/2", res.K, res.KEff)
	}
	// The paper's rejected example: schedules starting C, D, E (our 2,3,4)
	// must be eliminated.
	for _, s := range res.Efficient {
		if s.Order[0] == 2 && s.Order[1] == 3 && s.Order[2] == 4 {
			t.Errorf("paper's inefficient schedule %v survived", s)
		}
	}
}

func TestGenerateDedup(t *testing.T) {
	// Pentagon: |Aut| = 10, so 120 schedules form 12 classes.
	p := pattern.Pentagon()
	res := Generate(p, Options{KeepEliminated: true})
	if res.Classes != 12 {
		t.Errorf("Pentagon classes = %d, want 12", res.Classes)
	}
	// K5: all schedules equivalent.
	k5 := pattern.Clique(5)
	res = Generate(k5, Options{})
	if res.Classes != 1 || len(res.Efficient) != 1 {
		t.Errorf("K5 classes = %d efficient = %d, want 1/1", res.Classes, len(res.Efficient))
	}
}

func TestGeneratePhase2Filters(t *testing.T) {
	// For the House (k=2), phase 2 must remove connected schedules ending
	// in two adjacent vertices.
	h := pattern.House()
	all := Generate(h, Options{NoDedup: true, Phase1Only: true})
	filtered := Generate(h, Options{NoDedup: true})
	if len(filtered.Efficient) >= len(all.Efficient) {
		t.Errorf("phase 2 removed nothing: %d -> %d",
			len(all.Efficient), len(filtered.Efficient))
	}
	for _, s := range all.Efficient {
		if s.SuffixIndependent(h) < 2 {
			// must not be present in filtered
			for _, f := range filtered.Efficient {
				if f.String() == s.String() {
					t.Errorf("schedule %v should have been phase-2 eliminated", s)
				}
			}
		}
	}
}

func TestGenerateAlwaysNonEmpty(t *testing.T) {
	// Every connected pattern must retain at least one efficient schedule.
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.Pentagon(),
		pattern.House(), pattern.Cycle6Tri(), pattern.Prism(),
		pattern.CompleteBipartite(2, 3), pattern.Clique(6),
		pattern.CliqueMinus(6), pattern.StarN(5), pattern.PathN(6),
	}
	for _, p := range pats {
		res := Generate(p, Options{})
		if len(res.Efficient) == 0 {
			t.Errorf("%s: no efficient schedules (k=%d kEff=%d)", p, res.K, res.KEff)
		}
		if res.KEff > res.K {
			t.Errorf("%s: kEff %d exceeds k %d", p, res.KEff, res.K)
		}
	}
}

func TestKEffWhenFullKUnachievable(t *testing.T) {
	// The rectangle's only independent pairs are its diagonals, and ending
	// a schedule with a diagonal forces the other diagonal (disconnected)
	// as the prefix. The achievable suffix is therefore 1 < k = 2. Same
	// for the pentagon. Phase 2 must fall back instead of eliminating
	// everything.
	for _, p := range []*pattern.Pattern{pattern.Rectangle(), pattern.Pentagon()} {
		res := Generate(p, Options{})
		if res.K != 2 {
			t.Errorf("%s: k = %d, want 2", p, res.K)
		}
		if res.KEff != 1 {
			t.Errorf("%s: kEff = %d, want 1", p, res.KEff)
		}
		if len(res.Efficient) == 0 {
			t.Errorf("%s: no efficient schedules", p)
		}
	}
	// Cycle6Tri achieves its full k = 3.
	res := Generate(pattern.Cycle6Tri(), Options{})
	if res.KEff != 3 {
		t.Errorf("Cycle6Tri kEff = %d, want 3", res.KEff)
	}
	// K2,3 has k = 3 but its 3-side can never be a suffix of a connected
	// schedule (the 2-side is independent), so kEff = 2.
	res = Generate(pattern.CompleteBipartite(2, 3), Options{})
	if res.KEff != 2 {
		t.Errorf("K2,3 kEff = %d, want 2", res.KEff)
	}
}

func TestRelabeledPattern(t *testing.T) {
	h := pattern.House()
	s := Schedule{Order: []uint8{4, 0, 1, 2, 3}}
	r := RelabeledPattern(h, s)
	if !r.Isomorphic(h) {
		t.Fatal("relabeled pattern not isomorphic")
	}
	// In the relabeled pattern, vertex searched at depth i is i; its edges
	// must match the original schedule vertex's edges.
	for i := 0; i < h.N(); i++ {
		for j := 0; j < h.N(); j++ {
			if r.HasEdge(i, j) != h.HasEdge(int(s.Order[i]), int(s.Order[j])) {
				t.Fatalf("relabel mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMapRestrictions(t *testing.T) {
	s := Schedule{Order: []uint8{2, 0, 1}}
	// id(0) > id(1) in vertex names; 0 sits at position 1, 1 at position 2.
	got := MapRestrictions(s, [][2]uint8{{0, 1}})
	if got[0] != [2]uint8{1, 2} {
		t.Errorf("MapRestrictions = %v, want [1 2]", got)
	}
}

func TestPositionAndString(t *testing.T) {
	s := Schedule{Order: []uint8{2, 0, 1}}
	if s.Position(0) != 1 || s.Position(2) != 0 || s.Position(9) != -1 {
		t.Error("Position wrong")
	}
	if s.String() != "2→0→1" {
		t.Errorf("String = %q", s.String())
	}
	c := s.Clone()
	c.Order[0] = 9
	if s.Order[0] == 9 {
		t.Error("Clone aliases original")
	}
}

func TestCanonicalKeyGroupsEquivalentSchedules(t *testing.T) {
	// For the rectangle, schedules 0,1,2,3 and 1,2,3,0 are related by the
	// rotation automorphism and must collapse to one class.
	r := pattern.Rectangle()
	auts := r.Automorphisms()
	a := perm.Perm{0, 1, 2, 3}
	b := perm.Perm{1, 2, 3, 0}
	if canonicalKey(a, auts) != canonicalKey(b, auts) {
		t.Error("rotated schedules not in same class")
	}
	if !representative(a, auts) || representative(b, auts) {
		t.Error("0,1,2,3 should represent the class of 1,2,3,0")
	}
	// 0,1,2,3 (walk around) vs 0,2,1,3 (diagonal first) are genuinely
	// different search structures.
	c := perm.Perm{0, 2, 1, 3}
	if canonicalKey(a, auts) == canonicalKey(c, auts) {
		t.Error("inequivalent schedules share class")
	}
}
