package taskpool

import (
	"math/rand"
	"reflect"
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

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers should default to GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Error("Workers should pass through positive values")
	}
}

// TestRunRangesRunsEachRangeOnce: every range is handed out exactly once, to
// a worker index in range, and one worker takes them in order.
func TestRunRangesRunsEachRangeOnce(t *testing.T) {
	rs := Cut(37, 1, func(int) (int, int64) { return 1000, 1 })
	for _, workers := range []int{1, 2, 4} {
		var mu sync.Mutex
		var got []Range
		RunRanges(workers, rs, func(w int, r Range) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of [0, %d)", w, workers)
			}
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		})
		if len(got) != len(rs) {
			t.Fatalf("workers=%d: %d ranges run, want %d", workers, len(got), len(rs))
		}
		seen := map[Range]bool{}
		for i, r := range got {
			if seen[r] {
				t.Fatalf("workers=%d: range %v run twice", workers, r)
			}
			seen[r] = true
			if workers == 1 && r != rs[i] {
				t.Fatalf("one worker ran %v at position %d, want %v", r, i, rs[i])
			}
		}
	}
}

// cutInput is a random run-length weight list for Cut: run lengths 0..4 and
// weights 0..40, a quarter of them zero (degree-0 vertices).
type cutInput struct {
	tasks int
	lens  []int
	ws    []int64
}

func (in cutInput) run(r int) (int, int64) { return in.lens[r], in.ws[r] }

func (cutInput) Generate(rnd *rand.Rand, size int) reflect.Value {
	in := cutInput{}
	runs := rnd.Intn(size + 1)
	for r := 0; r < runs; r++ {
		in.lens = append(in.lens, rnd.Intn(5))
		w := int64(rnd.Intn(41))
		if rnd.Intn(4) == 0 {
			w = 0
		}
		in.ws = append(in.ws, w)
	}
	in.tasks = rnd.Intn(2*size + 3) // includes 0, 1 and tasks ≥ n
	return reflect.ValueOf(in)
}

// TestCutProperty: Cut covers [0, n) exactly with contiguous, non-empty
// ranges, at most tasks of them; the same input gives the same output; and no
// range weighs more than total/tasks plus the largest single weight.
func TestCutProperty(t *testing.T) {
	f := func(in cutInput) bool {
		rs := Cut(in.tasks, len(in.lens), in.run)
		var weight []int64 // per item
		var total, wmax int64
		for r := range in.lens {
			for i := 0; i < in.lens[r]; i++ {
				weight = append(weight, in.ws[r])
			}
			total += int64(in.lens[r]) * in.ws[r]
			if in.lens[r] > 0 {
				wmax = max(wmax, in.ws[r])
			}
		}
		n := len(weight)
		if n == 0 {
			return rs == nil
		}
		if len(rs) > max(in.tasks, 1) || !reflect.DeepEqual(rs, Cut(in.tasks, len(in.lens), in.run)) {
			return false
		}
		prev := 0
		for _, r := range rs {
			if r.Start != prev || r.Len() < 1 {
				return false
			}
			var w int64
			for i := r.Start; i < r.End; i++ {
				w += weight[i]
			}
			if tasks := int64(max(in.tasks, 1)); tasks*w > total+tasks*wmax {
				return false
			}
			prev = r.End
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCutShapes pins the cuts the engine relies on: unit weights are equal
// sizes, a heavy item sits alone, zero weights never make a range of their
// own, and an all-zero or single-task input is one range.
func TestCutShapes(t *testing.T) {
	runs := func(lens []int, ws []int64) func(int) (int, int64) {
		return func(r int) (int, int64) { return lens[r], ws[r] }
	}
	cases := []struct {
		name  string
		tasks int
		lens  []int
		ws    []int64
		want  []Range
	}{
		{"unit", 4, []int{10}, []int64{1}, []Range{{0, 3}, {3, 5}, {5, 8}, {8, 10}}},
		{"hub alone", 3, []int{1, 6}, []int64{30, 1}, []Range{{0, 1}, {1, 7}}},
		{"zero runs", 2, []int{2, 2, 3, 2}, []int64{0, 5, 0, 5}, []Range{{0, 4}, {4, 9}}},
		{"tasks >= n", 100, []int{1, 1, 1}, []int64{2, 0, 2}, []Range{{0, 1}, {1, 3}}},
		{"all zero", 4, []int{5}, []int64{0}, []Range{{0, 5}}},
		{"one task", 1, []int{3, 3}, []int64{9, 1}, []Range{{0, 6}}},
		{"empty", 4, []int{0}, []int64{7}, nil},
	}
	for _, c := range cases {
		if got := Cut(c.tasks, len(c.lens), runs(c.lens, c.ws)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Cut = %v, want %v", c.name, got, c.want)
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
