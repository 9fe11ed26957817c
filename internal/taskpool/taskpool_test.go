package taskpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 100, 1023} {
			var mu sync.Mutex
			seen := make([]bool, n)
			Run(workers, n, 16, func(_ int, r Range) {
				mu.Lock()
				defer mu.Unlock()
				for i := r.Start; i < r.End; i++ {
					if seen[i] {
						t.Errorf("index %d processed twice", i)
					}
					seen[i] = true
				}
			})
			for i, s := range seen {
				if !s {
					t.Fatalf("workers=%d n=%d: index %d missed", workers, n, i)
				}
			}
		}
	}
}

func TestRunWorkerIndicesInRange(t *testing.T) {
	var bad atomic.Int32
	Run(4, 1000, 8, func(w int, r Range) {
		if w < 0 || w >= 4 {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Error("worker index out of range")
	}
}

func TestSplitChunksProperty(t *testing.T) {
	f := func(n, chunk uint16) bool {
		nn, cc := int(n%2000), int(chunk%50)
		rs := SplitChunks(nn, cc)
		covered := 0
		prevEnd := 0
		for _, r := range rs {
			if r.Start != prevEnd {
				return false
			}
			covered += r.Len()
			prevEnd = r.End
		}
		return covered == nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers should default to GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Error("Workers should pass through positive values")
	}
}

func TestAdaptiveChunk(t *testing.T) {
	cases := []struct {
		n, workers, perWorker, min, max int
		want                            int
	}{
		{n: 64000, workers: 10, perWorker: 64, min: 1, max: 1024, want: 100},
		{n: 10, workers: 4, perWorker: 64, min: 1, max: 1024, want: 1},        // floor
		{n: 1 << 30, workers: 1, perWorker: 1, min: 1, max: 1024, want: 1024}, // cap
		{n: 1 << 30, workers: 1, perWorker: 1, min: 1, max: 0, want: 1 << 30}, // uncapped
		{n: 100, workers: 0, perWorker: 0, min: 0, max: 0, want: 100},         // degenerate inputs normalize
		{n: 1000, workers: 2, perWorker: 16, min: 40, max: 0, want: 40},       // min applies
	}
	for _, c := range cases {
		if got := AdaptiveChunk(c.n, c.workers, c.perWorker, c.min, c.max); got != c.want {
			t.Errorf("AdaptiveChunk(%d,%d,%d,%d,%d) = %d, want %d",
				c.n, c.workers, c.perWorker, c.min, c.max, got, c.want)
		}
	}
}

// TestOwnedSharesNoLine interleaves Owned slices with small plain allocations
// and checks that no plain object touches a 128-byte block (a line and its
// prefetch neighbour) holding an Owned slice's elements.
func TestOwnedSharesNoLine(t *testing.T) {
	const block = 128
	type span struct{ lo, hi uintptr } // [lo, hi) in bytes
	var owned, plain []span
	var keep [][]uint32
	for i := 0; i < 500; i++ {
		o := Owned[uint32](3, 6)
		if len(o) != 3 || cap(o) != 6 {
			t.Fatalf("Owned(3, 6): len %d cap %d", len(o), cap(o))
		}
		if grown := append(o, 1, 2, 3); &grown[0] != &o[0] {
			t.Fatal("append within the capacity reallocated")
		}
		p := make([]uint32, 6)
		keep = append(keep, o, p)
		lo := uintptr(unsafe.Pointer(&o[0]))
		owned = append(owned, span{lo &^ (block - 1), (lo + 6*4 + block - 1) &^ (block - 1)})
		lo = uintptr(unsafe.Pointer(&p[0]))
		plain = append(plain, span{lo, lo + 6*4})
	}
	for _, o := range owned {
		for _, p := range plain {
			if p.lo < o.hi && o.lo < p.hi {
				t.Fatalf("plain object [%#x, %#x) shares a block with an Owned slice [%#x, %#x)", p.lo, p.hi, o.lo, o.hi)
			}
		}
	}
	runtime.KeepAlive(keep)
}
