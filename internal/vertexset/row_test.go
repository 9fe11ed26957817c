package vertexset

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// rowFixture is a random CSR: rows[v] are sorted sets over [0, universe) cut
// from one backing array, as a graph's adjacency rows are, so a Row can tell
// them apart by their memory.
func rowFixture(rng *rand.Rand, nrows, universe, maxLen int) [][]uint32 {
	var backing []uint32
	ends := make([]int, nrows)
	for v := range ends {
		vals := make([]uint32, rng.IntN(maxLen+1))
		for i := range vals {
			vals[i] = uint32(rng.IntN(universe))
		}
		backing = append(backing, mkset(vals)...)
		ends[v] = len(backing)
	}
	rows := make([][]uint32, nrows)
	start := 0
	for v, end := range ends {
		rows[v] = backing[start:end:end]
		start = end
	}
	return rows
}

// TestIntersectRowMatchesIntersectWindow runs the row kernel over random rows,
// windows and hub bitmaps, with one row reused across every trial so that a
// stale bit from an earlier left operand would show: each output must equal
// IntersectWindow's, the kernel must be the one the size rule names, and the
// row must then hold exactly the last left operand it probed.
func TestIntersectRowMatchesIntersectWindow(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	const universe = 700
	rows := rowFixture(rng, 64, universe, 300)
	row := NewRow(NewBitmap(universe))
	var heldBy []uint32
	dst := make([]uint32, 0, universe)
	kernels := map[Kernel]int{}
	rowProbes := 0
	for trial := 0; trial < 20000; trial++ {
		a, b := rows[rng.IntN(len(rows))], rows[rng.IntN(len(rows))]
		lo, hi := uint32(0), NoBound
		switch trial % 4 {
		case 1:
			lo = uint32(rng.IntN(universe + 20))
		case 2:
			hi = uint32(rng.IntN(universe + 20))
		case 3:
			lo, hi = uint32(rng.IntN(universe)), uint32(rng.IntN(universe+20))
		}
		var aBM, bBM Bitmap
		if trial%7 == 0 {
			aBM = BitmapFromSet(a, universe)
		}
		if trial%5 == 0 {
			bBM = BitmapFromSet(b, universe)
		}
		want, _ := IntersectWindow(nil, a, b, nil, nil, lo, hi)
		var k Kernel
		dst, k = IntersectRow(dst, a, b, aBM, bBM, &row, lo, hi)
		if !reflect.DeepEqual(append([]uint32{}, dst...), append([]uint32{}, want...)) {
			t.Fatalf("trial %d [%d,%d) hubs(%v,%v): got %v, want %v", trial, lo, hi, aBM != nil, bBM != nil, dst, want)
		}
		wa, wb := Window(a, lo, hi), Window(b, lo, hi)
		wantK, probe := KernelBitmap, false
		switch {
		case bBM != nil && len(wa) <= len(wb):
		case len(wb) == 0 || len(wb) > gallopRatio*len(wa):
			wantK = KernelGallop
		default:
			probe = true
		}
		if k != wantK {
			t.Fatalf("trial %d: kernel %d, want %d (|a|=%d |b|=%d windowed)", trial, k, wantK, len(wa), len(wb))
		}
		kernels[k]++
		if probe && aBM == nil {
			heldBy = a
			rowProbes++
		}
		if !reflect.DeepEqual(row.bm, BitmapFromSet(heldBy, universe)) {
			t.Fatalf("trial %d: the row does not hold exactly its last left operand", trial)
		}
	}
	if rowProbes < 1000 || kernels[KernelGallop] < 1000 || kernels[KernelBitmap]-rowProbes < 1000 {
		t.Fatalf("kernel mix too thin to test: %d row probes, kernels %v", rowProbes, kernels)
	}
}

// BenchmarkRowProbe prices one step of a root's loop three ways: the merge of
// a 256-element left row with a 64-element right row, the same with the right
// side probing a held bit row of the left (vertexset.IntersectRow after its
// first call), and the cost of building and clearing that row once.
func BenchmarkRowProbe(b *testing.B) {
	const universe = 1 << 15
	left := benchSet(256, universe/256, 1)
	right := benchSet(64, universe/64, 2)
	dst := make([]uint32, 0, 64)
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst, _ = IntersectWindow(dst, left, right, nil, nil, 0, NoBound)
		}
	})
	b.Run("row", func(b *testing.B) {
		row := NewRow(NewBitmap(universe))
		for i := 0; i < b.N; i++ {
			dst, _ = IntersectRow(dst, left, right, nil, nil, &row, 0, NoBound)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		row := NewRow(NewBitmap(universe))
		other := benchSet(256, universe/256, 3)
		for i := 0; i < b.N; i++ {
			row.hold(left)
			row.hold(other)
		}
	})
	_ = dst
}
