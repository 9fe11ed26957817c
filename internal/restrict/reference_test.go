package restrict

import (
	"math/rand/v2"
	"sort"
	"testing"

	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/perm"
)

// This file keeps the enumerating implementation the package had before its
// inner loops stopped walking all n! relative orders — Kahn's algorithm for
// acyclicity, a perm.ForEach walk for the survivor count, and Algorithm 1
// with the count taken only at the leaves — as the oracle the current code is
// compared against.

func refAcyclic(n int, edges [][2]uint8) bool {
	var adjMask [perm.MaxDegree]uint16
	var indeg [perm.MaxDegree]int8
	for _, e := range edges {
		if adjMask[e[0]]&(1<<e[1]) == 0 {
			adjMask[e[0]] |= 1 << e[1]
			indeg[e[1]]++
		}
	}
	var stack []uint8
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			stack = append(stack, uint8(v))
		}
	}
	removed := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed++
		for w := uint8(0); int(w) < n; w++ {
			if adjMask[v]&(1<<w) != 0 {
				indeg[w]--
				if indeg[w] == 0 {
					stack = append(stack, w)
				}
			}
		}
	}
	return removed == n
}

func refConsistent(n int, s Set) bool {
	var edges [][2]uint8
	for _, r := range s {
		edges = append(edges, [2]uint8{r.First, r.Second})
	}
	return refAcyclic(n, edges)
}

func refEliminates(s Set, p perm.Perm) bool {
	var edges [][2]uint8
	for _, r := range s {
		edges = append(edges, [2]uint8{r.First, r.Second}, [2]uint8{p[r.First], p[r.Second]})
	}
	return !refAcyclic(len(p), edges)
}

func refCountOrderSurvivors(n int, s Set) int64 {
	var count int64
	perm.ForEach(n, func(sigma perm.Perm) bool {
		for _, r := range s {
			if sigma[r.First] <= sigma[r.Second] {
				return true
			}
		}
		count++
		return true
	})
	return count
}

// refValidate is Validate by enumeration: the set must be consistent,
// eliminate every non-identity automorphism and keep n!/|Aut| orders.
func refValidate(pat *pattern.Pattern, s Set) bool {
	n := pat.N()
	if !refConsistent(n, s) {
		return false
	}
	auts := pat.Automorphisms()
	for _, a := range auts {
		if !a.IsIdentity() && !refEliminates(s, a) {
			return false
		}
	}
	return refCountOrderSurvivors(n, s) == perm.Factorial(n)/int64(len(auts))
}

type refGenerator struct {
	n          int
	wantOrders int64
	opts       Options
	visited    map[string]bool
	results    map[string]Set
}

func (g *refGenerator) generate(pg []perm.Perm, res Set) {
	if len(g.results) >= g.opts.MaxSets {
		return
	}
	if len(pg) <= 1 {
		if refCountOrderSurvivors(g.n, res) == g.wantOrders {
			g.results[res.key()] = res.Clone()
		}
		return
	}
	for _, cand := range g.candidates(pg) {
		if len(g.results) >= g.opts.MaxSets {
			return
		}
		next := append(res.Clone(), cand).Canonicalize()
		if len(next) == len(res) {
			continue
		}
		k := next.key()
		if g.visited[k] {
			continue
		}
		g.visited[k] = true
		if !refConsistent(g.n, next) {
			continue
		}
		var remaining []perm.Perm
		for _, p := range pg {
			if !refEliminates(next, p) {
				remaining = append(remaining, p)
			}
		}
		g.generate(remaining, next)
	}
}

func (g *refGenerator) candidates(pg []perm.Perm) []Restriction {
	seen := map[Restriction]bool{}
	var out []Restriction
	add := func(a, b uint8) {
		for _, r := range []Restriction{{a, b}, {b, a}} {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	for _, p := range pg {
		if p.IsIdentity() {
			continue
		}
		for _, tc := range p.TwoCycles() {
			add(tc[0], tc[1])
		}
		if g.opts.FirstPermOnly && len(out) > 0 {
			break
		}
	}
	if len(out) == 0 {
		for _, p := range pg {
			if p.IsIdentity() {
				continue
			}
			for v := range p {
				if int(p[v]) != v {
					add(uint8(v), p[v])
				}
			}
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	return out
}

// refGenerate is Generate without pruning: every leaf of Algorithm 1's
// branching is reached and counted by enumeration.
func refGenerate(pat *pattern.Pattern, opts Options) []Set {
	if opts.MaxSets <= 0 {
		opts.MaxSets = defaultMaxSets
	}
	auts := pat.Automorphisms()
	if len(auts) > firstPermThreshold {
		opts.FirstPermOnly = true
	}
	g := &refGenerator{
		n:          pat.N(),
		wantOrders: perm.Factorial(pat.N()) / int64(len(auts)),
		opts:       opts,
		visited:    map[string]bool{},
		results:    map[string]Set{},
	}
	g.generate(auts, nil)
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
	return out
}

func suite() []patterntest.Named {
	if testing.Short() {
		return patterntest.Suite(5)
	}
	return patterntest.Suite(6)
}

// TestGenerateMatchesReference: pruning must not change which sets come
// back, nor their order, at any cap.
func TestGenerateMatchesReference(t *testing.T) {
	for _, np := range suite() {
		for _, maxSets := range []int{1, 8, 64} {
			got, err := Generate(np.Pat, Options{MaxSets: maxSets})
			if err != nil {
				t.Fatalf("%s MaxSets=%d: %v", np.Name, maxSets, err)
			}
			want := refGenerate(np.Pat, Options{MaxSets: maxSets})
			if len(got) != len(want) {
				t.Errorf("%s MaxSets=%d: %d sets, reference has %d", np.Name, maxSets, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i].key() != want[i].key() {
					t.Errorf("%s MaxSets=%d: set %d is %v, reference has %v", np.Name, maxSets, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestSetPredicatesMatchReference compares the mask-based Consistent,
// Eliminates and CountOrderSurvivors with the enumerating ones on random
// restriction sets, contradictory ones included.
func TestSetPredicatesMatchReference(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 7))
	for n := 1; n <= 7; n++ {
		for trial := 0; trial < 80; trial++ {
			var s Set
			for k := r.IntN(2 * n); k > 0 && n > 1; k-- {
				a, b := r.IntN(n), r.IntN(n)
				if a != b {
					s = append(s, Restriction{uint8(a), uint8(b)})
				}
			}
			s = s.Canonicalize()
			if got, want := s.Consistent(n), refConsistent(n, s); got != want {
				t.Fatalf("n=%d %v: Consistent = %v, reference %v", n, s, got, want)
			}
			if got, want := CountOrderSurvivors(n, s), refCountOrderSurvivors(n, s); got != want {
				t.Fatalf("n=%d %v: CountOrderSurvivors = %d, reference %d", n, s, got, want)
			}
			p := perm.Identity(n)
			r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
			if got, want := s.Eliminates(p), refEliminates(s, p); got != want {
				t.Fatalf("n=%d %v %v: Eliminates = %v, reference %v", n, s, p, got, want)
			}
		}
	}
}

// randomConnected draws a connected pattern on n vertices.
func randomConnected(r *rand.Rand, n int) *pattern.Pattern {
	for {
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		if p := pattern.MustNew(n, edges, "rand"); p.Connected() {
			return p
		}
	}
}

// TestValidateMatchesReference: the transversal test on the order table
// must accept exactly the sets the enumerating reference accepts —
// complete sets, the same sets with a restriction dropped, reversed or its
// reverse added (incomplete, over-restrictive, self-contradictory), and
// random sets.
func TestValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(37, 11))
	pats := []*pattern.Pattern{
		pattern.Rectangle(), pattern.House(), pattern.Prism(), pattern.CycleN(8),
		pattern.CompleteBipartite(2, 3), pattern.StarN(8), pattern.CliqueMinus(6),
	}
	for n := 3; n <= 8; n++ {
		for i := 0; i < 6; i++ {
			pats = append(pats, randomConnected(r, n))
		}
	}
	accepted, rejected := 0, 0
	for _, p := range pats {
		n := p.N()
		complete, err := Generate(p, Options{MaxSets: 4})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		complete = append(complete, GraphZeroSet(p))
		var sets []Set
		for _, s := range complete {
			sets = append(sets, s)
			for i, x := range s {
				rest := append(s[:i:i], s[i+1:]...)
				sets = append(sets,
					rest,
					append(rest.Clone(), Restriction{x.Second, x.First}).Canonicalize(),
					append(s.Clone(), Restriction{x.Second, x.First}).Canonicalize())
			}
		}
		for trial := 0; trial < 8; trial++ {
			var s Set
			for k := r.IntN(n + 2); k > 0; k-- {
				if a, b := r.IntN(n), r.IntN(n); a != b {
					s = append(s, Restriction{uint8(a), uint8(b)})
				}
			}
			sets = append(sets, s.Canonicalize())
		}
		for _, s := range sets {
			got, want := Validate(p, s) == nil, refValidate(p, s)
			if got != want {
				t.Fatalf("%s %v: Validate accepts: %v, reference: %v", p, s, got, want)
			}
			if got {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d sets accepted, %d rejected: the sample misses a side", accepted, rejected)
	}
	t.Logf("%d sets accepted, %d rejected", accepted, rejected)
}

// encodePattern and decodePattern are FuzzGenerate's input format: one byte
// for the vertex count (2 + byte mod 6), then the upper adjacency triangle
// row by row, one bit per vertex pair, low bit first.
func encodePattern(p *pattern.Pattern) []byte {
	out := []byte{byte(p.N() - 2)}
	bit := 0
	for u := 0; u < p.N(); u++ {
		for v := u + 1; v < p.N(); v++ {
			if bit%8 == 0 {
				out = append(out, 0)
			}
			if p.HasEdge(u, v) {
				out[len(out)-1] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	return out
}

func decodePattern(data []byte) *pattern.Pattern {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%6
	var edges [][2]int
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if i := 1 + bit/8; i < len(data) && data[i]&(1<<(bit%8)) != 0 {
				edges = append(edges, [2]int{u, v})
			}
			bit++
		}
	}
	return pattern.MustNew(n, edges, "fuzz")
}

// FuzzGenerate: on any connected pattern of up to 7 vertices, Generate must
// return the reference's sets, in its order, at every cap.
//
//	go test -run '^$' -fuzz=FuzzGenerate -fuzztime=30s ./internal/restrict
func FuzzGenerate(f *testing.F) {
	for _, p := range namedPatterns() {
		if p.N() <= 7 {
			f.Add(encodePattern(p))
		}
	}
	for _, np := range patterntest.Suite(5) {
		f.Add(encodePattern(np.Pat))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePattern(data)
		if p == nil || !p.Connected() {
			return
		}
		for _, maxSets := range []int{1, 8, 64} {
			got, err := Generate(p, Options{MaxSets: maxSets})
			if err != nil {
				t.Fatalf("%s MaxSets=%d: %v", p, maxSets, err)
			}
			want := refGenerate(p, Options{MaxSets: maxSets})
			if len(got) != len(want) {
				t.Fatalf("%s MaxSets=%d: %d sets, reference has %d", p, maxSets, len(got), len(want))
			}
			for i := range got {
				if got[i].key() != want[i].key() {
					t.Fatalf("%s MaxSets=%d: set %d is %v, reference has %v", p, maxSets, i, got[i], want[i])
				}
			}
		}
	})
}
