package perm

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if !id.IsIdentity() || !id.Valid() {
		t.Error("Identity(5) not identity/valid")
	}
	if id.String() != "()" {
		t.Errorf("identity String = %q", id.String())
	}
	if len(Identity(0)) != 0 {
		t.Error("Identity(0) not empty")
	}
}

func TestValid(t *testing.T) {
	if (Perm{0, 0}).Valid() {
		t.Error("duplicate image accepted")
	}
	if (Perm{0, 3}).Valid() {
		t.Error("out-of-range image accepted")
	}
	if !(Perm{1, 0, 2}).Valid() {
		t.Error("valid perm rejected")
	}
}

func TestComposeInverse(t *testing.T) {
	p := Perm{1, 2, 0, 3} // (0 1 2)
	q := Perm{0, 1, 3, 2} // (2 3)
	pq := Compose(p, q)
	// (p∘q)(2) = p(3) = 3, (p∘q)(3) = p(2) = 0
	want := Perm{1, 2, 3, 0}
	if !slices.Equal(pq, want) {
		t.Errorf("Compose = %v, want %v", pq, want)
	}
	if !Compose(p, p.Inverse()).IsIdentity() || !Compose(p.Inverse(), p).IsIdentity() {
		t.Error("p∘p⁻¹ != id")
	}
}

func TestComposeDegreeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compose with mismatched degrees did not panic")
		}
	}()
	Compose(Perm{0}, Perm{0, 1})
}

func TestCycles(t *testing.T) {
	p := Perm{0, 3, 2, 1, 5, 6, 4} // (1 3)(4 5 6)
	cycles := p.Cycles()
	want := [][]uint8{{1, 3}, {4, 5, 6}}
	if !reflect.DeepEqual(cycles, want) {
		t.Errorf("Cycles = %v, want %v", cycles, want)
	}
	if got := p.String(); got != "(1 3)(4 5 6)" {
		t.Errorf("String = %q", got)
	}
}

func TestTwoCycles(t *testing.T) {
	p := Perm{1, 0, 3, 2, 4} // (0 1)(2 3)
	got := p.TwoCycles()
	want := [][2]uint8{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TwoCycles = %v, want %v", got, want)
	}
	// A 3-cycle has no 2-cycles.
	q := Perm{1, 2, 0}
	if len(q.TwoCycles()) != 0 {
		t.Errorf("3-cycle TwoCycles = %v, want none", q.TwoCycles())
	}
	// A 4-cycle has no 2-cycles either (only in the disjoint decomposition).
	r := Perm{1, 2, 3, 0}
	if len(r.TwoCycles()) != 0 {
		t.Errorf("4-cycle TwoCycles = %v", r.TwoCycles())
	}
}

// isGroup reports whether the given set of permutations is closed under
// composition and inverse and contains the identity.
func isGroup(ps []Perm) bool {
	if len(ps) == 0 {
		return false
	}
	set := make(map[string]bool, len(ps))
	for _, p := range ps {
		if !p.Valid() || len(p) != len(ps[0]) {
			return false
		}
		set[p.key()] = true
	}
	if !set[Identity(len(ps[0])).key()] {
		return false
	}
	for _, p := range ps {
		if !set[p.Inverse().key()] {
			return false
		}
		for _, q := range ps {
			if !set[Compose(p, q).key()] {
				return false
			}
		}
	}
	return true
}

func TestClosure(t *testing.T) {
	// The rotation (0 1 2 3) and reflection (1 3) generate the dihedral
	// group D4 of order 8 — the automorphism group of the rectangle pattern
	// in the paper's Figure 4(c).
	rot := Perm{1, 2, 3, 0}
	refl := Perm{0, 3, 2, 1}
	g := Closure([]Perm{rot, refl})
	if len(g) != 8 {
		t.Fatalf("|D4| = %d, want 8", len(g))
	}
	if !isGroup(g) {
		t.Error("closure is not a group")
	}
	// Cyclic group C5.
	c5 := Closure([]Perm{{1, 2, 3, 4, 0}})
	if len(c5) != 5 || !isGroup(c5) {
		t.Errorf("|C5| = %d, want 5", len(c5))
	}
	if Closure(nil) != nil {
		t.Error("Closure(nil) != nil")
	}
}

func TestIsGroupRejects(t *testing.T) {
	// Missing identity.
	if isGroup([]Perm{{1, 0}}) {
		t.Error("set without identity accepted")
	}
	// Not closed.
	if isGroup([]Perm{{0, 1, 2}, {1, 2, 0}}) {
		t.Error("non-closed set accepted")
	}
	if isGroup(nil) {
		t.Error("empty set accepted")
	}
}

func TestForEachCountsFactorial(t *testing.T) {
	for n := 0; n <= 6; n++ {
		count := int64(0)
		seen := map[string]bool{}
		ForEach(n, func(p Perm) bool {
			count++
			seen[string(p)] = true
			if !p.Valid() {
				t.Fatalf("ForEach yielded invalid perm %v", p)
			}
			return true
		})
		if count != Factorial(n) {
			t.Errorf("ForEach(%d) yielded %d perms, want %d", n, count, Factorial(n))
		}
		if int64(len(seen)) != count {
			t.Errorf("ForEach(%d) yielded duplicates", n)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	ForEach(5, func(p Perm) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop after %d, want 7", count)
	}
}

func TestForEachLexOrder(t *testing.T) {
	var prev string
	first := true
	ForEach(4, func(p Perm) bool {
		s := string(p)
		if !first && s <= prev {
			t.Fatalf("not lexicographic: %v after %v", p, prev)
		}
		prev, first = s, false
		return true
	})
}

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040, 40320}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
}

func randPerm(r *rand.Rand, n int) Perm {
	p := Identity(n)
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestGroupAxiomsProperty(t *testing.T) {
	// Associativity, inverse and cycle-decomposition round trip on random
	// permutations.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		n := 1 + r.IntN(10)
		p, q, s := randPerm(r, n), randPerm(r, n), randPerm(r, n)
		// (p∘q)∘s == p∘(q∘s)
		if !slices.Equal(Compose(Compose(p, q), s), Compose(p, Compose(q, s))) {
			return false
		}
		// Rebuilding from cycles gives back p.
		rebuilt := Identity(n)
		for _, cyc := range p.Cycles() {
			for i := 0; i < len(cyc); i++ {
				rebuilt[cyc[i]] = cyc[(i+1)%len(cyc)]
			}
		}
		if !slices.Equal(rebuilt, p) {
			return false
		}
		// Every 2-cycle (i,j) satisfies p(i)=j, p(j)=i.
		for _, tc := range p.TwoCycles() {
			if p[tc[0]] != tc[1] || p[tc[1]] != tc[0] {
				return false
			}
		}
		return p.Clone().Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClosureRedundantGenerators(t *testing.T) {
	// A whole group handed back as its own generating set, and random
	// generators with repeats, against the one-generator-at-a-time rule.
	r := rand.New(rand.NewPCG(5, 9))
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 20; trial++ {
			gens := []Perm{randPerm(r, n), randPerm(r, n)}
			g := Closure(gens)
			if !isGroup(g) {
				t.Fatalf("n=%d: closure of %v is not a group", n, gens)
			}
			again := Closure(append(append([]Perm{}, g...), gens...))
			if len(again) != len(g) {
				t.Fatalf("n=%d: closure of a group has %d elements, want %d", n, len(again), len(g))
			}
			for i := range g {
				if !slices.Equal(g[i], again[i]) {
					t.Fatalf("n=%d: closure of a group differs at %d", n, i)
				}
			}
		}
	}
	// Transposition + n-cycle generate S_6; everything after them is skipped.
	s6 := Closure([]Perm{{1, 0, 2, 3, 4, 5}, {1, 2, 3, 4, 5, 0}, {0, 2, 1, 3, 4, 5}})
	if int64(len(s6)) != Factorial(6) {
		t.Errorf("|S6| = %d, want 720", len(s6))
	}
}

// enumerateOrders is the n! walk CountOrders replaces: the number of orders σ
// of {0,…,n-1} with σ(u) > σ(v) for every bit u of above[v], u, v < n.
func enumerateOrders(n int, above []uint16) int64 {
	var count int64
	ForEach(n, func(sigma Perm) bool {
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if above[v]&(1<<u) != 0 && sigma[u] <= sigma[v] {
					return true
				}
			}
		}
		count++
		return true
	})
	return count
}

func TestCountOrdersMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 3))
	cyclic := 0
	for n := 1; n <= 7; n++ {
		for trial := 0; trial < 60; trial++ {
			above := make([]uint16, n)
			// Odd trials orient every pair along a random hidden order
			// (consistent); even trials orient at random (often cyclic).
			hidden := randPerm(r, n)
			for k := r.IntN(2 * n); k > 0; k-- {
				u, v := r.IntN(n), r.IntN(n)
				if u == v {
					continue
				}
				if trial%2 == 1 && hidden[u] < hidden[v] {
					u, v = v, u
				}
				above[v] |= 1 << u
			}
			prefix := make([]int64, n)
			got := CountOrders(above, prefix)
			if want := enumerateOrders(n, above); got != want {
				t.Fatalf("n=%d above=%v: CountOrders = %d, enumeration = %d", n, above, got, want)
			}
			if trial%2 == 1 && got == 0 {
				t.Fatalf("n=%d above=%v: consistent relation counted 0", n, above)
			}
			if got == 0 {
				cyclic++
			}
			for i := 0; i < n; i++ {
				if want := enumerateOrders(i+1, above); prefix[i] != want {
					t.Fatalf("n=%d above=%v: prefix[%d] = %d, enumeration = %d", n, above, i, prefix[i], want)
				}
			}
			if CountOrders(above, nil) != got {
				t.Fatalf("n=%d: nil prefix changes the count", n)
			}
		}
	}
	if cyclic == 0 {
		t.Error("no cyclic relation was generated")
	}
	if CountOrders(nil, nil) != 1 {
		t.Error("empty relation on no elements should count the one empty order")
	}
	// Unconstrained: n!; a chain: 1. n = 10 exercises the heap-allocated table.
	chain := make([]uint16, 10)
	for v := 0; v+1 < len(chain); v++ {
		chain[v] = 1 << (v + 1)
	}
	if CountOrders(make([]uint16, 10), nil) != Factorial(10) || CountOrders(chain, nil) != 1 {
		t.Error("n=10: free and chain counts wrong")
	}
}
