package iep

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func benchSets(k, size int) [][]uint32 {
	r := rand.New(rand.NewPCG(9, 9))
	sets := make([][]uint32, k)
	for i := range sets {
		s := make([]uint32, 0, size)
		v := uint32(0)
		for len(s) < size {
			v += 1 + uint32(r.IntN(3))
			s = append(s, v)
		}
		sets[i] = s
	}
	return sets
}

// BenchmarkPartitionForm measures the engine's partition-lattice IEP
// (Bell(k) terms) against …
func BenchmarkPartitionForm(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			sets := benchSets(k, 256)
			c := NewCalculator(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Count(sets, nil)
			}
		})
	}
}

// BenchmarkCountIn is the engine's entry into the same evaluation: two bound
// vertices excluded, their memberships supplied the way codegen's ExcludedIn
// supplies them.
func BenchmarkCountIn(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			sets := benchSets(k, 256)
			var exIn []uint16
			for _, x := range []uint32{sets[0][10], sets[k-1][20]} {
				var in uint16
				for i, s := range sets {
					if slices.Contains(s, x) {
						in |= 1 << i
					}
				}
				exIn = append(exIn, in)
			}
			c := NewCalculator(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += c.CountIn(sets, nil, exIn)
			}
		})
	}
}

// sink keeps a benchmarked result live.
var sink int64

// … BenchmarkPairSubsetForm, the paper-literal Algorithm 2 with 2^C(k,2)
// subset terms — the ablation shows why the engine uses the partition form.
func BenchmarkPairSubsetForm(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			sets := benchSets(k, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CountPairSubsets(sets, nil)
			}
		})
	}
}
