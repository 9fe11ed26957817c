package iep

import (
	"math/rand/v2"
	"slices"
	"testing"

	"graphpi/internal/vertexset"
)

// TestCountHybridMatchesScalar cross-checks the bitmap-accelerated
// calculator against the scalar path and the pair-subset specification on
// random sets with a random subset of bitmaps available.
func TestCountHybridMatchesScalar(t *testing.T) {
	const universe = 512
	r := rand.New(rand.NewPCG(21, 4))
	for iter := 0; iter < 150; iter++ {
		k := 1 + r.IntN(4)
		sets := make([][]uint32, k)
		bms := make([]vertexset.Bitmap, k)
		for i := range sets {
			n := 1 + r.IntN(60)
			seen := map[uint32]bool{}
			for len(seen) < n {
				seen[uint32(r.IntN(universe))] = true
			}
			s := make([]uint32, 0, n)
			for v := uint32(0); v < universe; v++ {
				if seen[v] {
					s = append(s, v)
				}
			}
			sets[i] = s
			if r.IntN(2) == 0 {
				bms[i] = vertexset.BitmapFromSet(s, universe)
			}
		}
		var excluded []uint32
		for j := r.IntN(3); j > 0; j-- {
			excluded = append(excluded, uint32(r.IntN(universe)))
		}
		c := NewCalculator(k)
		scalar := c.Count(sets, excluded)
		hybrid := c.CountHybrid(sets, bms, excluded)
		spec := CountPairSubsetsHybrid(sets, bms, excluded)
		brute := bruteDistinctTuples(sets, excluded)
		if scalar != brute || hybrid != brute || spec != brute {
			t.Fatalf("iter %d (k=%d): scalar=%d hybrid=%d spec=%d brute=%d",
				iter, k, scalar, hybrid, spec, brute)
		}
	}
}

// TestCountHybridStateReset ensures bitmap state from one call does not leak
// into a later scalar call on the same calculator.
func TestCountHybridStateReset(t *testing.T) {
	sets := [][]uint32{{1, 2, 3, 4}, {2, 3, 4, 5}}
	bms := []vertexset.Bitmap{
		vertexset.BitmapFromSet(sets[0], 8),
		vertexset.BitmapFromSet(sets[1], 8),
	}
	c := NewCalculator(2)
	want := bruteDistinctTuples(sets, nil)
	if got := c.CountHybrid(sets, bms, nil); got != want {
		t.Fatalf("hybrid = %d, want %d", got, want)
	}
	// Different sets, no bitmaps: stale c.bms must not be consulted.
	sets2 := [][]uint32{{1, 3, 5, 7}, {3, 5, 7}}
	want2 := bruteDistinctTuples(sets2, nil)
	if got := c.Count(sets2, nil); got != want2 {
		t.Fatalf("scalar after hybrid = %d, want %d", got, want2)
	}
}

// TestCountInMatchesSpec: CountIn, fed memberships worked out by a linear
// scan, equals the pair-subset specification on random k ≤ 4 with bitmaps on
// a random subset of the sets and excluded vertices drawn with repeats (a
// repeat is one vertex: it gets one mask).
func TestCountInMatchesSpec(t *testing.T) {
	const universe = 96
	r := rand.New(rand.NewPCG(5, 21))
	for iter := 0; iter < 300; iter++ {
		k := 1 + r.IntN(4)
		sets := make([][]uint32, k)
		bms := make([]vertexset.Bitmap, k)
		for i := range sets {
			for v := uint32(0); v < universe; v++ {
				if r.IntN(3) == 0 {
					sets[i] = append(sets[i], v)
				}
			}
			if r.IntN(2) == 0 {
				bms[i] = vertexset.BitmapFromSet(sets[i], universe)
			}
		}
		var excluded []uint32
		var exIn []uint16
		for j := r.IntN(5); j > 0; j-- {
			x := uint32(r.IntN(universe))
			if len(excluded) > 0 && r.IntN(3) == 0 {
				x = excluded[r.IntN(len(excluded))]
			}
			if !slices.Contains(excluded, x) {
				var in uint16
				for i, s := range sets {
					if slices.Contains(s, x) {
						in |= 1 << i
					}
				}
				exIn = append(exIn, in)
			}
			excluded = append(excluded, x)
		}
		want := CountPairSubsetsHybrid(sets, bms, excluded)
		if got := NewCalculator(k).CountIn(sets, bms, exIn); got != want {
			t.Fatalf("iter %d (k=%d, excluded %v, masks %v): CountIn = %d, spec = %d", iter, k, excluded, exIn, got, want)
		}
	}
}
