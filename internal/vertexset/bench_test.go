package vertexset

import (
	"math/rand/v2"
	"testing"
)

// sink keeps the compiler from discarding a benchmarked call whose result
// nothing else reads.
var sink int

func benchSet(n int, stride uint32, seed uint64) []uint32 {
	r := rand.New(rand.NewPCG(seed, 3))
	out := make([]uint32, n)
	v := uint32(0)
	for i := range out {
		v += 1 + uint32(r.Uint32())%stride
		out[i] = v
	}
	return out
}

func BenchmarkIntersectMergeBalanced(b *testing.B) {
	x := benchSet(4096, 4, 1)
	y := benchSet(4096, 4, 2)
	dst := make([]uint32, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y)
	}
	_ = dst
}

func BenchmarkIntersectGallopSkewed(b *testing.B) {
	small := benchSet(32, 512, 1)
	big := benchSet(65536, 4, 2)
	dst := make([]uint32, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, small, big)
	}
	_ = dst
}

func BenchmarkIntersectSize(b *testing.B) {
	x := benchSet(4096, 4, 1)
	y := benchSet(4096, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += IntersectSize(x, y)
	}
}

func BenchmarkIntersectWindow(b *testing.B) {
	x := benchSet(4096, 4, 1)
	y := benchSet(4096, 4, 2)
	bound := x[len(x)/2]
	dst := make([]uint32, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = IntersectWindow(dst, x, y, nil, nil, 0, bound)
	}
	_ = dst
}
