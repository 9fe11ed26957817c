package vertexset

import (
	"fmt"
	"testing"
)

// BenchmarkIntersectCrossover sweeps the size ratio |big|/|small| across the
// merge → gallop → bitmap regimes, pinning each strategy explicitly. The
// adaptive kernels pick a strategy from the hardcoded gallopRatio; this sweep
// is the measurement that constant has been missing, and it locates where the
// bitmap kernel (hub adjacencies) takes over.
//
// Run with: go test ./internal/vertexset -bench Crossover -benchtime 100x
func BenchmarkIntersectCrossover(b *testing.B) {
	const bigN = 1 << 16
	big := benchSet(bigN, 4, 2)
	universe := int(big[len(big)-1]) + 1
	bm := BitmapFromSet(big, universe)
	for _, ratio := range []int{1, 2, 8, 16, 32, 64, 128, 512} {
		smallN := bigN / ratio
		// Spread the small set over the same value range as the big one.
		small := benchSet(smallN, uint32(4*ratio), 1)
		dst := make([]uint32, 0, smallN)
		b.Run(fmt.Sprintf("ratio=%d/merge", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = intersectMerge(dst[:0], small, big)
			}
		})
		b.Run(fmt.Sprintf("ratio=%d/gallop", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = intersectGallop(dst[:0], small, big)
			}
		})
		b.Run(fmt.Sprintf("ratio=%d/bitmap", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = IntersectBitmap(dst, small, bm)
			}
		})
		_ = dst
	}
}

func BenchmarkIntersectSizeBitmap(b *testing.B) {
	big := benchSet(1<<16, 4, 2)
	universe := int(big[len(big)-1]) + 1
	bm := BitmapFromSet(big, universe)
	small := benchSet(512, 512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += IntersectSizeBitmap(small, bm)
	}
}

func BenchmarkIntersectMultiHybrid(b *testing.B) {
	const universe = 1 << 18
	hub1 := benchSet(1<<15, 8, 3)
	hub2 := benchSet(1<<15, 8, 4)
	small := benchSet(256, 1024, 5)
	sets := [][]uint32{small, hub1, hub2}
	withBMs := []Bitmap{nil, BitmapFromSet(hub1, universe), BitmapFromSet(hub2, universe)}
	dst := make([]uint32, 0, 256)
	scratch := make([]uint32, 0, 256)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = IntersectMultiHybrid(dst, scratch, sets, nil)
		}
	})
	b.Run("bitmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = IntersectMultiHybrid(dst, scratch, sets, withBMs)
		}
	})
	_ = dst
}
