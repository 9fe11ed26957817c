// Package taskpool provides the shared-memory parallel runtime underneath
// GraphPi's engine (paper §IV-E). The paper splits the outer loops of the
// matching program into fine-grained tasks to counter the power-law workload
// skew of real graphs. This package supplies Cut, which splits the outer
// loop into ranges of equal predicted work for both the single-node engine
// and the cluster master, and RunRanges and Run, the self-scheduling from a
// shared counter (the OpenMP "dynamic schedule") that in-process workers use.
package taskpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// LinePad is the unused space that keeps one worker's hot state off every
// cache line another allocation uses: a 64-byte line and its neighbour, which
// the adjacent-line prefetcher fetches as a pair. A struct a worker writes in
// its inner loop starts and ends with one (see Owned for why).
type LinePad [128]byte

// Owned returns a slice of length n and capacity c whose elements share no
// cache line with any other allocation. It is for the state one worker writes
// in its inner loop — bound vertices, buffer headers, IEP scratch. Allocated
// plainly, such a small object can land beside another worker's or beside a
// plan's read-hot data, and the cores then trade the line on every write;
// placement follows allocation order, so the slowdown comes and goes from one
// run to the next (a 2-worker IEP count took 175 or 250 ms by luck of
// placement). Appending past c reallocates without the padding, so c must
// bound the slice's use.
func Owned[T any](n, c int) []T {
	pad := int(unsafe.Sizeof(LinePad{}))/max(int(unsafe.Sizeof(*new(T))), 1) + 1
	return make([]T, pad+c+pad)[pad : pad+n : pad+c]
}

// Range is a half-open interval [Start, End) of task indices.
type Range struct {
	Start, End int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.End - r.Start }

// Workers normalizes a worker-count request: values < 1 become
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run partitions [0, n) into chunks of the given size and hands them to
// workers goroutines that self-schedule from a shared atomic cursor. fn is
// called with the worker index (0 ≤ worker < workers) and the claimed range.
// Run returns when every chunk has been processed. chunk < 1 defaults to 1.
func Run(workers, n, chunk int, fn func(worker int, r Range)) {
	if chunk < 1 {
		chunk = 1
	}
	if n <= 0 {
		return
	}
	if Workers(workers) == 1 {
		fn(0, Range{0, n})
		return
	}
	dispatch(workers, (n+chunk-1)/chunk, func(w, i int) {
		fn(w, Range{i * chunk, min((i+1)*chunk, n)})
	})
}

// RunRanges hands the given ranges, in order, to workers goroutines that
// self-schedule from a shared atomic cursor, and returns when every range has
// been processed. fn is called with the worker index (0 ≤ worker < workers)
// and the claimed range. One worker runs the ranges in order on the calling
// goroutine.
func RunRanges(workers int, rs []Range, fn func(worker int, r Range)) {
	dispatch(workers, len(rs), func(w, i int) { fn(w, rs[i]) })
}

// dispatch calls task(worker, i) once for every i in [0, n), with workers
// goroutines claiming indices in order from a shared cursor.
func dispatch(workers, n int, task func(worker, i int)) {
	workers = Workers(workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				task(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// Cut splits [0, n) into at most tasks contiguous, non-empty ranges of about
// equal predicted work. The items come in runs of equal weight: run(r) for r
// in [0, runs) returns the length of run r and the weight of each of its
// items, and the runs tile [0, n) in order. A range ends at the first item
// whose prefix weight reaches the next multiple of total/tasks, so no range
// weighs more than total/tasks plus the largest single weight. Zero-weight
// items join a neighbouring range; when every weight is zero, or tasks < 2,
// the whole interval is one range. Cut is deterministic and runs in
// O(runs + tasks) time without allocating more than its result.
func Cut(tasks, runs int, run func(r int) (items int, weight int64)) []Range {
	var n int
	var total int64
	for r := 0; r < runs; r++ {
		items, w := run(r)
		n += items
		total += int64(items) * w
	}
	if n == 0 {
		return nil
	}
	if tasks < 2 || total == 0 {
		return []Range{{0, n}}
	}
	out := make([]Range, 0, min(tasks, n))
	// The k-th target is ⌈k·total/tasks⌉, kept as whole (q per step) and
	// fractional (rem per step, carried at tasks) parts so nothing overflows.
	q, rem := total/int64(tasks), total%int64(tasks)
	whole, frac := q, rem
	target := func() int64 {
		if frac > 0 {
			return whole + 1
		}
		return whole
	}
	t := target()
	var acc int64 // weight of the items before pos
	start, pos := 0, 0
	for r, k := 0, 1; r < runs; r++ {
		items, w := run(r)
		for k < tasks && acc+int64(items)*w >= t {
			end := pos + int((t-acc+w-1)/w) // w > 0: acc < t ≤ the run's end
			if end > start {
				out = append(out, Range{start, end})
				start = end
			}
			k++
			whole, frac = whole+q, frac+rem
			if frac >= int64(tasks) {
				whole, frac = whole+1, frac-int64(tasks)
			}
			t = target()
		}
		pos += items
		acc += int64(items) * w
	}
	if start < n {
		out = append(out, Range{start, n})
	}
	return out
}
