package vertexset

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// mkset turns arbitrary values into a valid sorted duplicate-free set.
func mkset(vals []uint32) []uint32 {
	seen := make(map[uint32]bool, len(vals))
	out := make([]uint32, 0, len(vals))
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refIntersect is the obvious map-based reference implementation.
func refIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	out := []uint32{}
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, []uint32{}},
		{[]uint32{1, 2, 3}, nil, []uint32{}},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, []uint32{2, 3}},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, []uint32{}},
		{[]uint32{7}, []uint32{7}, []uint32{7}},
		{[]uint32{0, 1, 2, 3, 4}, []uint32{0, 4}, []uint32{0, 4}},
	}
	for _, c := range cases {
		got := Intersect(nil, c.a, c.b)
		if !reflect.DeepEqual(append([]uint32{}, got...), c.want) {
			t.Errorf("Intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if n := IntersectSize(c.a, c.b); n != len(c.want) {
			t.Errorf("IntersectSize(%v, %v) = %d, want %d", c.a, c.b, n, len(c.want))
		}
	}
}

func TestIntersectMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		got := Intersect(nil, a, b)
		want := refIntersect(a, b)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual([]uint32(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntersectGallopPath(t *testing.T) {
	// Force the galloping path: one tiny set against one huge set.
	rng := rand.New(rand.NewPCG(1, 2))
	big := make([]uint32, 0, 100000)
	for i := 0; i < 100000; i++ {
		big = append(big, uint32(i*3))
	}
	small := []uint32{}
	for i := 0; i < 20; i++ {
		small = append(small, uint32(rng.IntN(300000)))
	}
	small = mkset(small)
	got := Intersect(nil, small, big)
	want := refIntersect(small, big)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual([]uint32(got), want) {
		t.Errorf("gallop intersect mismatch: got %v want %v", got, want)
	}
	if n := IntersectSize(small, big); n != len(want) {
		t.Errorf("gallop IntersectSize = %d, want %d", n, len(want))
	}
}

func TestIntersectSizeMatchesIntersect(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		return IntersectSize(a, b) == len(Intersect(nil, a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntersectWindowFixed(t *testing.T) {
	a := []uint32{1, 4, 6, 9, 12}
	b := []uint32{4, 6, 8, 12, 14}
	cases := []struct {
		lo, hi uint32
		want   []uint32
	}{
		{0, NoBound, []uint32{4, 6, 12}},
		{0, 12, []uint32{4, 6}},
		{5, NoBound, []uint32{6, 12}},
		{4, 7, []uint32{4, 6}},
		{0, 0, []uint32{}}, // empty window
		{7, 7, []uint32{}}, // lo == hi
		{9, 5, []uint32{}}, // inverted window
		{13, NoBound, []uint32{}},
	}
	for _, c := range cases {
		got, _ := IntersectWindow(nil, a, b, nil, nil, c.lo, c.hi)
		if !reflect.DeepEqual(append([]uint32{}, got...), c.want) {
			t.Errorf("IntersectWindow [%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestIntersectWindowMatchesUnbounded pins the bounded kernel to the
// composition it replaces — Intersect, then Below/Above on the result — on
// random sets and windows, with every combination of hub bitmaps attached,
// and pins the reported kernel to the rule the unbounded paths follow.
func TestIntersectWindowMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	const universe = 600
	randSet := func(n int) []uint32 {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.IntN(universe))
		}
		return mkset(vals)
	}
	dst := make([]uint32, 0, universe)
	for trial := 0; trial < 4000; trial++ {
		a, b := randSet(rng.IntN(40)), randSet(rng.IntN(400))
		if trial%2 == 1 {
			a, b = b, a
		}
		lo, hi := uint32(rng.IntN(universe+20)), uint32(rng.IntN(universe+20))
		switch trial % 5 {
		case 0:
			lo = 0
		case 1:
			hi = NoBound
		case 2:
			lo, hi = 0, NoBound
		}
		want := Intersect(nil, a, b)
		want = Below(want, hi)
		if lo > 0 {
			want = Above(want, lo-1)
		}
		if lo >= hi {
			want = nil
		}
		var aBM, bBM Bitmap
		if trial&4 != 0 {
			aBM = BitmapFromSet(a, universe)
		}
		if trial&8 != 0 {
			bBM = BitmapFromSet(b, universe)
		}
		var kern Kernel
		dst, kern = IntersectWindow(dst, a, b, aBM, bBM, lo, hi)
		if len(dst) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dst, want)) {
			t.Fatalf("trial %d [%d,%d) bitmaps(%v,%v): got %v, want %v",
				trial, lo, hi, aBM != nil, bBM != nil, dst, want)
		}
		wa, wb := Window(a, lo, hi), Window(b, lo, hi)
		wantKern := KernelMerge
		switch {
		case bBM != nil && len(wa) <= len(wb), aBM != nil && len(wb) < len(wa):
			wantKern = KernelBitmap
		case max(len(wa), len(wb)) >= gallopRatio*min(len(wa), len(wb)):
			wantKern = KernelGallop
		}
		if kern != wantKern {
			t.Fatalf("trial %d: kernel %d, want %d (|a|=%d |b|=%d trimmed)", trial, kern, wantKern, len(wa), len(wb))
		}
	}
}

func TestWindow(t *testing.T) {
	a := []uint32{2, 5, 7, 11}
	cases := []struct {
		lo, hi uint32
		want   []uint32
	}{
		{0, NoBound, a}, {0, 7, a[:2]}, {5, NoBound, a[1:]}, {6, 8, a[2:3]},
		{3, 5, nil}, {12, NoBound, nil}, {0, 2, nil}, {8, 3, nil},
	}
	for _, c := range cases {
		if got := Window(a, c.lo, c.hi); len(got) != len(c.want) || (len(got) > 0 && &got[0] != &c.want[0]) {
			t.Errorf("Window(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if got := Window(nil, 3, 9); len(got) != 0 {
		t.Errorf("Window(nil) = %v", got)
	}
}

func TestBelow(t *testing.T) {
	a := []uint32{2, 5, 7, 11}
	cases := []struct {
		bound uint32
		want  int
	}{{0, 0}, {2, 0}, {3, 1}, {7, 2}, {8, 3}, {12, 4}, {11, 3}}
	for _, c := range cases {
		if got := Below(a, c.bound); len(got) != c.want {
			t.Errorf("Below(%v, %d) has len %d, want %d", a, c.bound, len(got), c.want)
		}
	}
	if got := Below(nil, 5); len(got) != 0 {
		t.Errorf("Below(nil) = %v", got)
	}
}

func TestContains(t *testing.T) {
	a := []uint32{1, 3, 5, 8, 13}
	for _, v := range a {
		if !Contains(a, v) {
			t.Errorf("Contains(%v, %d) = false, want true", a, v)
		}
	}
	for _, v := range []uint32{0, 2, 4, 9, 14} {
		if Contains(a, v) {
			t.Errorf("Contains(%v, %d) = true, want false", a, v)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil, 1) = true")
	}
}

func TestIntersectMulti(t *testing.T) {
	s1 := []uint32{1, 2, 3, 4, 5, 6}
	s2 := []uint32{2, 4, 6, 8}
	s3 := []uint32{4, 5, 6, 7}
	got := IntersectMulti(nil, nil, s1, s2, s3)
	want := []uint32{4, 6}
	if !reflect.DeepEqual(append([]uint32{}, got...), want) {
		t.Errorf("IntersectMulti = %v, want %v", got, want)
	}
	if got := IntersectMulti(nil, nil, s1); !reflect.DeepEqual(append([]uint32{}, got...), s1) {
		t.Errorf("IntersectMulti single = %v, want %v", got, s1)
	}
	if got := IntersectMulti(nil, nil); len(got) != 0 {
		t.Errorf("IntersectMulti() = %v, want empty", got)
	}
	// Empty member annihilates.
	if got := IntersectMulti(nil, nil, s1, []uint32{}, s3); len(got) != 0 {
		t.Errorf("IntersectMulti with empty = %v, want empty", got)
	}
}

func TestIntersectMultiMatchesFold(t *testing.T) {
	f := func(av, bv, cv, dv []uint32) bool {
		a, b, c, d := mkset(av), mkset(bv), mkset(cv), mkset(dv)
		got := IntersectMulti(nil, nil, a, b, c, d)
		want := refIntersect(refIntersect(refIntersect(a, b), c), d)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(append([]uint32{}, got...), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGallopSearch(t *testing.T) {
	b := []uint32{10, 20, 30, 40, 50, 60, 70, 80}
	cases := []struct {
		lo   int
		x    uint32
		want int
	}{
		{0, 5, 0}, {0, 10, 0}, {0, 15, 1}, {0, 80, 7}, {0, 81, 8},
		{3, 40, 3}, {3, 45, 4}, {8, 100, 8},
	}
	for _, c := range cases {
		if got := gallopSearch(b, c.lo, c.x); got != c.want {
			t.Errorf("gallopSearch(b, %d, %d) = %d, want %d", c.lo, c.x, got, c.want)
		}
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]uint32{1}) || !IsSorted([]uint32{1, 2, 9}) {
		t.Error("IsSorted false negative")
	}
	if IsSorted([]uint32{1, 1}) || IsSorted([]uint32{2, 1}) {
		t.Error("IsSorted false positive")
	}
}

func TestIntersectReusesDst(t *testing.T) {
	dst := make([]uint32, 0, 16)
	a := []uint32{1, 2, 3}
	b := []uint32{2, 3, 4}
	got := Intersect(dst, a, b)
	if &got[0] != &dst[:1][0] {
		t.Error("Intersect did not reuse dst backing array")
	}
	// A second call must truncate previous contents.
	got = Intersect(got, a, []uint32{3})
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Intersect reuse = %v, want [3]", got)
	}
}
