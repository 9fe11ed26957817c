package vertexset

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitmapBasic(t *testing.T) {
	bm := NewBitmap(130)
	for _, x := range []uint32{0, 1, 63, 64, 65, 128, 129} {
		bm.Set(x)
	}
	for _, x := range []uint32{0, 1, 63, 64, 65, 128, 129} {
		if !bm.Contains(x) {
			t.Errorf("Contains(%d) = false, want true", x)
		}
	}
	for _, x := range []uint32{2, 62, 66, 127, 130, 1 << 30} {
		if bm.Contains(x) {
			t.Errorf("Contains(%d) = true, want false", x)
		}
	}
}

func TestBitmapFromSet(t *testing.T) {
	set := []uint32{3, 17, 64, 200}
	bm := BitmapFromSet(set, 256)
	for x := uint32(0); x < 256; x++ {
		want := false
		for _, s := range set {
			if s == x {
				want = true
			}
		}
		if bm.Contains(x) != want {
			t.Errorf("Contains(%d) = %v, want %v", x, bm.Contains(x), want)
		}
	}
}

// TestIntersectBitmapMatchesMerge cross-checks the bitmap kernel against the
// scalar merge on random sorted sets (satellite requirement: every new bitmap
// kernel vs. the scalar reference).
func TestIntersectBitmapMatchesMerge(t *testing.T) {
	const universe = 1 << 14
	f := func(rawA, rawB []uint32) bool {
		a, b := mkset(rawA), mkset(rawB)
		a = clampSet(a, universe)
		b = clampSet(b, universe)
		bm := BitmapFromSet(b, universe)
		want := append([]uint32{}, Intersect(nil, a, b)...)
		got := append([]uint32{}, IntersectBitmap(nil, a, bm)...)
		if !reflect.DeepEqual(got, want) {
			t.Logf("a=%v b=%v got=%v want=%v", a, b, got, want)
			return false
		}
		return IntersectSizeBitmap(a, bm) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntersectBitmapUniverse: the branch-free probes index the bitmap without
// a per-element range check, so they must still treat ids past its universe as
// non-members (the word boundary, the last word's spare bits, and the top of
// the id space), and never allocate when dst already has room for small.
func TestIntersectBitmapUniverse(t *testing.T) {
	bm := BitmapFromSet([]uint32{1, 64, 129}, 130) // three words
	small := []uint32{1, 64, 129, 191, 192, 193, 1 << 20, NoBound - 1, NoBound}
	want := []uint32{1, 64, 129}
	dst := make([]uint32, 0, len(small))
	if got := IntersectBitmap(dst, small, bm); !reflect.DeepEqual(got, want) {
		t.Errorf("IntersectBitmap = %v, want %v", got, want)
	}
	if got := IntersectSizeBitmap(small, bm); got != len(want) {
		t.Errorf("IntersectSizeBitmap = %d, want %d", got, len(want))
	}
	if got := IntersectBitmap(nil, small, nil); len(got) != 0 {
		t.Errorf("empty bitmap kept %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst = IntersectBitmap(dst, small, bm)
		_ = IntersectSizeBitmap(small, bm)
	}); allocs != 0 {
		t.Errorf("%v allocations per run with dst capacity %d", allocs, cap(dst))
	}
}

// clampSet maps set members into [0, universe) preserving sortedness and
// uniqueness.
func clampSet(s []uint32, universe uint32) []uint32 {
	out := s[:0]
	var prev uint32
	for _, x := range s {
		x %= universe
		if len(out) > 0 && x <= prev {
			continue
		}
		out = append(out, x)
		prev = x
	}
	// The modulo can break ordering; rebuild via mkset for safety.
	return mkset(out)
}

func TestIntersectMultiHybridMatchesFold(t *testing.T) {
	const universe = 1 << 12
	r := rand.New(rand.NewPCG(42, 7))
	for iter := 0; iter < 200; iter++ {
		k := 1 + r.IntN(5)
		sets := make([][]uint32, k)
		bms := make([]Bitmap, k)
		for i := range sets {
			n := r.IntN(200)
			raw := make([]uint32, n)
			for j := range raw {
				raw[j] = uint32(r.IntN(universe))
			}
			sets[i] = mkset(raw)
			if r.IntN(2) == 0 {
				bms[i] = BitmapFromSet(sets[i], universe)
			}
		}
		want := append([]uint32{}, sets[0]...)
		for _, s := range sets[1:] {
			want = Intersect(nil, want, s)
		}
		setsCopy := make([][]uint32, k)
		copy(setsCopy, sets)
		got := append([]uint32{}, IntersectMultiHybrid(nil, nil, sets, bms)...)
		if !reflect.DeepEqual(got, append([]uint32{}, want...)) {
			t.Fatalf("iter %d: IntersectMultiHybrid = %v, want %v", iter, got, want)
		}
		// The kernel must not mutate the caller's set slice.
		for i := range sets {
			if len(sets[i]) != len(setsCopy[i]) {
				t.Fatalf("iter %d: sets[%d] mutated", iter, i)
			}
		}
		// All-scalar path must agree with the classic IntersectMulti.
		classic := IntersectMulti(nil, nil, append([][]uint32{}, sets...)...)
		if !reflect.DeepEqual(append([]uint32{}, got...), append([]uint32{}, classic...)) {
			t.Fatalf("iter %d: hybrid %v != IntersectMulti %v", iter, got, classic)
		}
	}
}

func TestIntersectMultiHybridEdgeCases(t *testing.T) {
	if got := IntersectMultiHybrid(nil, nil, nil, nil); len(got) != 0 {
		t.Errorf("no sets: got %v, want empty", got)
	}
	one := []uint32{1, 5, 9}
	if got := IntersectMultiHybrid(nil, nil, [][]uint32{one}, nil); !reflect.DeepEqual(append([]uint32{}, got...), one) {
		t.Errorf("single set: got %v, want %v", got, one)
	}
	empty := [][]uint32{one, {}}
	if got := IntersectMultiHybrid(nil, nil, empty, nil); len(got) != 0 {
		t.Errorf("with empty set: got %v, want empty", got)
	}
}

// TestMarkMembers drives every dispatch arm — bitmap probe, either gallop
// direction, merge — at sizes that straddle word boundaries, and checks the
// bit row against Contains, the reported kernel against the sizes, and that
// words past the row are left alone.
func TestMarkMembers(t *testing.T) {
	const universe = 1 << 12
	rng := rand.New(rand.NewPCG(3, 9))
	draw := func(n int) []uint32 {
		raw := make([]uint32, n)
		for i := range raw {
			raw[i] = rng.Uint32N(universe)
		}
		return mkset(raw)
	}
	for _, na := range []int{0, 1, 63, 64, 65, 128, 200} {
		for _, nb := range []int{0, 1, 5, 64, 300, 3000} {
			a, b := draw(na), draw(nb)
			for _, withBM := range []bool{false, true} {
				var bm Bitmap
				if withBM {
					bm = BitmapFromSet(b, universe)
				}
				words := BitmapWords(len(a))
				dst := make(Bitmap, words+1)
				for i := range dst {
					dst[i] = ^uint64(0) // stale
				}
				kern := MarkMembers(dst, a, b, bm)
				for j, x := range a {
					if got, want := dst.Contains(uint32(j)), Contains(b, x); got != want {
						t.Fatalf("|a|=%d |b|=%d bm=%v: bit %d (vertex %d) = %v, want %v", len(a), len(b), withBM, j, x, got, want)
					}
				}
				for j := len(a); j < words*64; j++ {
					if dst.Contains(uint32(j)) {
						t.Fatalf("|a|=%d |b|=%d bm=%v: bit %d past the row is set", len(a), len(b), withBM, j)
					}
				}
				if dst[words] != ^uint64(0) {
					t.Fatalf("|a|=%d |b|=%d bm=%v: wrote past BitmapWords(len(a))", len(a), len(b), withBM)
				}
				want := KernelMerge
				switch {
				case withBM && len(a) <= len(b):
					want = KernelBitmap
				case len(b) >= gallopRatio*len(a), len(a) >= gallopRatio*len(b):
					want = KernelGallop
				}
				if kern != want {
					t.Errorf("|a|=%d |b|=%d bm=%v: ran kernel %d, want %d", len(a), len(b), withBM, kern, want)
				}
			}
		}
	}
}
