package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// quadrantParams are RMAT quadrant probabilities: the harness's, the
// uniform split, non-default ones, sums of exactly 1, a sum above 1,
// degenerate corners, negative entries that leave a quadrant unreachable,
// and NaN.
var quadrantParams = [][3]float64{
	{0.57, 0.19, 0.19},
	{0.25, 0.25, 0.25},
	{0.45, 0.25, 0.15},
	{0.5, 0.3, 0.2},
	{0.1, 0.2, 0.7},
	{0.6, 0.3, 0.3},
	{1, 0, 0},
	{0, 0, 0},
	{0, 1, 0},
	{0.3, -0.1, 0.5},
	{0.4, 0.3, -0.2},
	{-0.1, 0.5, 0.2},
	{math.NaN(), 0.2, 0.2},
	{1.0 / 3, 1.0 / 3, 1.0 / 3},
}

// floatQuadrant is RMAT's quadrant switch on rand.Rand.Float64's value of the
// PCG word w: the row and column bit of the quadrant it picks.
func floatQuadrant(w uint64, a, b, c float64) (ubit, vbit uint64) {
	p := float64(w<<11>>11) / (1 << 53)
	switch {
	case p < a: // top-left
		return 0, 0
	case p < a+b: // top-right
		return 0, 1
	case p < a+b+c: // bottom-left
		return 1, 0
	}
	return 1, 1 // bottom-right
}

// TestQuadrantBitsMatchFloatSwitch: the integer thresholds pick the float
// switch's quadrant on each side of every threshold and on random words.
func TestQuadrantBitsMatchFloatSwitch(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 2))
	for _, q := range quadrantParams {
		a, b, c := q[0], q[1], q[2]
		tA, tAB, tABC := quadrantThresholds(a, b, c)
		check := func(y uint64) {
			// The high 11 bits are dropped by both sides.
			w := y | r.Uint64()<<53
			ub, vb := quadrantBits(w<<11>>11, tA, tAB, tABC)
			if fu, fv := floatQuadrant(w, a, b, c); ub != fu || vb != fv {
				t.Fatalf("(%v, %v, %v) y=%d: integer quadrant (%d, %d), float (%d, %d)", a, b, c, y, ub, vb, fu, fv)
			}
		}
		for _, s := range []float64{a, a + b, a + b + c} {
			k := int64(0) // ⌈s·2⁵³⌉ clamped to [0, 2⁵³]; NaN counts no draw
			if s > 0 {
				k = int64(math.Ceil(math.Min(s, 1) * (1 << 53)))
			}
			for y := k - 1; y <= k+1; y++ {
				if y >= 0 && y < 1<<53 {
					check(uint64(y))
				}
			}
		}
		check(0)
		check(1<<53 - 1)
		for i := 0; i < 100_000; i++ {
			check(r.Uint64() >> 11)
		}
	}
}

// refRMAT is RMAT as first written: one Float64 and a quadrant switch per
// level, a map of the kept keys, one attempt at a time.
func refRMAT(scale int, edges int, a, b, c float64, seed uint64) *Graph {
	r := rng(seed)
	n := 1 << scale
	bld := NewBuilder(n, edges)
	seen := make(map[uint64]bool, edges)
	attempts := 0
	maxAttempts := edges * 8
	for len(seen) < edges && attempts < maxAttempts {
		attempts++
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Float64()
			switch {
			case p < a: // top-left
			case p < a+b: // top-right
				v |= 1 << bit
			case p < a+b+c: // bottom-left
				u |= 1 << bit
			default: // bottom-right
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		lo, hi := uint32(u), uint32(v)
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(lo)<<32 | uint64(hi)
		if seen[key] {
			continue
		}
		seen[key] = true
		bld.AddEdge(lo, hi)
	}
	bld.SetNumVertices(n)
	g, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestRMATMatchesFloatDescent: RMAT builds refRMAT's graph for every
// quadrant split, for requests that fill, that saturate at maxAttempts, and
// that span several draw batches.
func TestRMATMatchesFloatDescent(t *testing.T) {
	for i, q := range quadrantParams {
		for _, size := range [][2]int{{0, 3}, {1, 5}, {4, 200}, {7, 900}, {9, 3000}, {12, 2*rmatBatch + 77}} {
			if size[1] > 3000 && i%4 != 0 {
				continue // the multi-batch request on a sample of splits
			}
			scale, edges, seed := size[0], size[1], uint64(i+1)
			what := fmt.Sprintf("RMAT(%d, %d, %v, %v, %v, %d)", scale, edges, q[0], q[1], q[2], seed)
			if d := sameCSR(RMAT(scale, edges, q[0], q[1], q[2], seed), refRMAT(scale, edges, q[0], q[1], q[2], seed)); d != "" {
				t.Errorf("%s: the %s differs from the float descent's", what, d)
			}
		}
	}
}

// TestEdgeSet: add reports each key new exactly once, across table wraps.
func TestEdgeSet(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 3))
	for _, n := range []int{0, 1, 2, 7, 1000} {
		s := newEdgeSet(n)
		if len(s.slots) < 2*n || len(s.slots)&(len(s.slots)-1) != 0 {
			t.Fatalf("newEdgeSet(%d): %d slots", n, len(s.slots))
		}
		want := map[uint64]bool{}
		for len(want) < n {
			key := edgeKey(uint64(r.IntN(64)), uint64(r.IntN(64)))
			if key == 0 {
				continue
			}
			if got := s.add(key); got == want[key] {
				t.Fatalf("n=%d: add(%#x) = %v with the key present: %v", n, key, got, want[key])
			}
			want[key] = true
		}
	}
}
